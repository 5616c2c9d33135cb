// End-to-end integrity plane (kFeatE2eCrc): CRC32C vectors, wire-format
// stamp/verify, eager and rendezvous corruption detection, the integrity-NAK
// retransmit path (healing WITHOUT a channel teardown), torn zero-copy
// sources caught after the pull, retry exhaustion surfacing
// Errc::integrity_error, feature negotiation with CRC-free and v1 peers,
// and the egress-corrupt filter regression (retained window blocks must
// never be mutated in place).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "analysis/filter.hpp"
#include "common/crc32c.hpp"
#include "core/context.hpp"
#include "pair.hpp"

namespace xrdma::core {
namespace {

// ---------------------------------------------------------------------------
// CRC32C primitive.

TEST(Crc32c, KnownVectorAndExtendComposition) {
  // RFC 3720 test vector: CRC32C("123456789") = 0xE3069283.
  const char* s = "123456789";
  EXPECT_EQ(crc32c(s, 9), 0xE3069283u);
  EXPECT_EQ(crc32c(s, 0), 0u);
  // Streaming over arbitrary splits must equal the one-shot result.
  for (std::size_t cut = 0; cut <= 9; ++cut) {
    std::uint32_t c = crc32c(s, cut);
    c = crc32c_extend(c, s + cut, 9 - cut);
    EXPECT_EQ(c, 0xE3069283u) << "split at " << cut;
  }
}

TEST(Crc32c, Rfc3720KnownAnswers) {
  // RFC 3720 appendix B.4, through the dispatched and the portable kernel.
  std::uint8_t zeros[32] = {};
  std::uint8_t ones[32];
  std::uint8_t up[32];
  std::uint8_t down[32];
  for (int i = 0; i < 32; ++i) {
    ones[i] = 0xFF;
    up[i] = static_cast<std::uint8_t>(i);
    down[i] = static_cast<std::uint8_t>(31 - i);
  }
  const std::pair<const std::uint8_t*, std::uint32_t> cases[] = {
      {zeros, 0x8A9136AAu}, {ones, 0x62A8AB43u},
      {up, 0x46DD794Eu},    {down, 0x113FDB5Cu}};
  for (const auto& [data, want] : cases) {
    EXPECT_EQ(crc32c(data, 32), want);
    EXPECT_EQ(crc32c_extend_portable(0, data, 32), want);
  }
}

// Seeded bytes, with 8 bytes of slack so every start alignment fits.
std::vector<std::uint8_t> crc_test_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n + 8);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& b : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  return v;
}

TEST(Crc32c, DispatchedKernelMatchesPortableAtEveryLengthAndAlignment) {
  // On a host with SSE4.2 this pits the 3-lane hardware kernel against the
  // byte-wise table: every tail length, both lane widths at and around
  // their 3-lane thresholds, and all 8 start alignments.
  RecordProperty("crc32c_hardware", crc32c_hardware() ? 1 : 0);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 1024; ++n) lengths.push_back(n);
  for (const std::size_t base : {std::size_t{3 * 256}, std::size_t{3 * 8192}}) {
    for (const std::size_t d : {0, 1, 8}) {
      lengths.push_back(base - d);
      lengths.push_back(base + d);
    }
  }
  lengths.push_back((64u << 10) - 1);
  lengths.push_back((64u << 10) + 1);
  lengths.push_back(256u << 10);
  const auto buf = crc_test_bytes(256u << 10);
  for (const std::size_t n : lengths) {
    for (std::size_t off = 0; off < 8; ++off) {
      const std::uint8_t* p = buf.data() + off;
      ASSERT_EQ(crc32c_extend(0x1234u, p, n), crc32c_extend_portable(0x1234u, p, n))
          << "len " << n << " offset " << off;
      ASSERT_EQ(crc32c(p, n), crc32c_extend_portable(0, p, n))
          << "len " << n << " offset " << off;
    }
  }
}

TEST(Crc32c, ExtendComposesAtEveryCutAndAtLaneBoundaries) {
  const auto small = crc_test_bytes(3000);
  const std::uint32_t whole = crc32c(small.data(), 3000);
  for (std::size_t cut = 0; cut <= 3000; ++cut) {
    const std::uint32_t head = crc32c(small.data(), cut);
    ASSERT_EQ(crc32c_extend(head, small.data() + cut, 3000 - cut), whole)
        << "cut " << cut;
  }
  // Cuts on either side of the 256 B and 8 KiB lane edges of a buffer long
  // enough for both lane widths, as a two- and a three-piece split.
  constexpr std::size_t n = 2 * 3 * 8192 + 3 * 256 + 13;
  const auto big = crc_test_bytes(n);
  const std::uint32_t big_whole = crc32c_extend_portable(0, big.data(), n);
  for (const std::size_t edge :
       {std::size_t{256}, std::size_t{3 * 256}, std::size_t{8192},
        std::size_t{3 * 8192}, std::size_t{3 * 8192 + 3 * 256},
        std::size_t{2 * 3 * 8192}}) {
    for (const std::size_t cut : {edge - 8, edge - 1, edge, edge + 1, edge + 8}) {
      const std::uint32_t head = crc32c(big.data(), cut);
      EXPECT_EQ(crc32c_extend(head, big.data() + cut, n - cut), big_whole)
          << "cut " << cut;
      const std::size_t mid = cut + (n - cut) / 2;
      std::uint32_t c = crc32c_extend(head, big.data() + cut, mid - cut);
      c = crc32c_extend(c, big.data() + mid, n - mid);
      EXPECT_EQ(c, big_whole) << "cuts " << cut << ", " << mid;
    }
  }
}

// ---------------------------------------------------------------------------
// Wire format: the CRC TLV, stamping, and header verification.

TEST(WireFormat, CrcTlvRoundTripsAndHeaderCrcCoversEveryByte) {
  WireHeader hdr;
  hdr.version = WireHeader::kVersionMax;
  hdr.seq = 41;
  hdr.ack = 7;
  hdr.payload_len = 128;
  hdr.crc_present = true;
  hdr.payload_crc = 0xdeadbeef;
  std::uint8_t buf[WireHeader::kBareSize] = {};
  hdr.encode(buf);
  hdr.stamp_crc(buf);

  WireHeader out;
  ASSERT_EQ(WireHeader::decode_ex(buf, sizeof buf, out), HdrDecode::ok);
  EXPECT_TRUE(out.crc_present);
  EXPECT_EQ(out.payload_crc, 0xdeadbeefu);
  EXPECT_TRUE(WireHeader::verify_hdr_crc(buf, sizeof buf, out));

  // Flip one bit at EVERY header offset: each flip must be caught, either
  // by decode (magic/version damage) or by the header CRC — there is no
  // uncovered byte, padding included.
  for (std::size_t i = 0; i < sizeof buf; ++i) {
    std::uint8_t copy[WireHeader::kBareSize];
    std::memcpy(copy, buf, sizeof buf);
    copy[i] ^= 0x40;
    WireHeader h;
    const bool decode_ok =
        WireHeader::decode_ex(copy, sizeof copy, h) == HdrDecode::ok;
    const bool verify_ok =
        decode_ok && WireHeader::verify_hdr_crc(copy, sizeof copy, h);
    EXPECT_FALSE(verify_ok) << "flip at byte " << i << " went undetected";
  }
}

// ---------------------------------------------------------------------------
// Channel plane.

using test::Pair;

TEST(ChannelIntegrity, NegotiatedChannelStampsEveryFrameBothWays) {
  Pair t;
  t.establish();
  ASSERT_TRUE(t.client_ch->proto_features() & kFeatE2eCrc);
  int got = 0;
  t.server_ch->set_on_msg([&](Channel& ch, Msg&& m) {
    ++got;
    ch.send_msg(std::move(m.payload));
  });
  t.client_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
  t.client_ch->send_msg(Buffer::make(100));
  t.run(millis(5));
  EXPECT_EQ(got, 2);
  // Data frames AND the standalone acks behind them carry the CRC TLV.
  EXPECT_GT(t.client_ch->stats().crc_stamped_tx, 0u);
  EXPECT_GT(t.server_ch->stats().crc_stamped_tx, 0u);
  EXPECT_EQ(t.server_ch->stats().crc_failures_rx, 0u);
  EXPECT_EQ(t.client_ch->stats().crc_failures_rx, 0u);
}

TEST(ChannelIntegrity, CorruptedEagerFrameHealsViaNakWithoutTeardown) {
  Pair t;
  t.establish();
  analysis::Filter rx_filter(t.server, /*seed=*/31);
  rx_filter.add_rule(
      {analysis::FaultKind::ingress_corrupt, 1.0, 0, /*budget=*/1, 0});

  Buffer original = Buffer::make(2048);
  fill_pattern(original, 9);
  std::vector<Buffer> got;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { got.push_back(std::move(m.payload)); });
  t.client_ch->send_msg(original.clone());
  t.run(millis(10));

  // Detected, NAK'd, replayed from the send window — no recovery cycle,
  // no QP replacement, the channel never left `established`.
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].size(), original.size());
  EXPECT_EQ(std::memcmp(got[0].data(), original.data(), original.size()), 0);
  EXPECT_EQ(t.server_ch->stats().crc_failures_rx, 1u);
  EXPECT_EQ(t.server_ch->stats().integrity_naks_tx, 1u);
  EXPECT_EQ(t.client_ch->stats().integrity_naks_rx, 1u);
  EXPECT_GE(t.client_ch->stats().integrity_retransmits, 1u);
  EXPECT_EQ(t.client_ch->stats().recoveries_started, 0u);
  EXPECT_EQ(t.server_ch->stats().recoveries_started, 0u);
  EXPECT_EQ(t.client_ch->state(), Channel::State::established);
}

TEST(ChannelIntegrity, ZeroByteAndInlineBoundarySizesSurviveCorruption) {
  // 0 B (payload CRC sentinel — header-only coverage), inline_max - 1,
  // inline_max (the default 256 B inline-WQE path) and inline_max + 1 (the
  // staged path): the first two arrivals are corrupted and every message
  // must still come through pristine, in order.
  Pair t;
  t.establish();
  analysis::Filter rx_filter(t.server, /*seed=*/77);
  rx_filter.add_rule(
      {analysis::FaultKind::ingress_corrupt, 1.0, 0, /*budget=*/2, 0});

  const std::vector<std::uint32_t> sizes = {0, 255, 256, 257};
  std::vector<Buffer> got;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { got.push_back(std::move(m.payload)); });
  for (std::uint32_t s : sizes) {
    Buffer b = Buffer::make(s);
    fill_pattern(b, 1000 + s);
    t.client_ch->send_msg(std::move(b));
  }
  t.run(millis(10));

  ASSERT_EQ(got.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ASSERT_EQ(got[i].size(), sizes[i]) << "message " << i;
    EXPECT_TRUE(check_pattern(got[i], 1000 + sizes[i])) << "message " << i;
  }
  EXPECT_EQ(t.server_ch->stats().crc_failures_rx, 2u);
  EXPECT_EQ(t.server_ch->stats().integrity_naks_tx, 2u);
  EXPECT_EQ(t.client_ch->stats().recoveries_started, 0u);
  EXPECT_EQ(t.client_ch->state(), Channel::State::established);
}

TEST(ChannelIntegrity, FragmentedRendezvousAroundFragBoundaryVerifies) {
  // One byte either side of the 64 KB read-fragment boundary: the payload
  // CRC covers the WHOLE message, not per-fragment, so multi-fragment
  // pulls verify once after reassembly.
  Pair t;
  t.establish();
  const std::vector<std::uint32_t> sizes = {64 * 1024 - 1, 64 * 1024,
                                            64 * 1024 + 1};
  std::vector<Buffer> got;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { got.push_back(std::move(m.payload)); });
  for (std::uint32_t s : sizes) {
    Buffer b = Buffer::make(s);
    fill_pattern(b, s);
    t.client_ch->send_msg(std::move(b));
  }
  t.run(millis(20));

  ASSERT_EQ(got.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ASSERT_EQ(got[i].size(), sizes[i]);
    EXPECT_TRUE(check_pattern(got[i], sizes[i]));
  }
  EXPECT_EQ(t.server_ch->stats().reads_issued, 4u);  // 1 + 1 + 2 fragments
  EXPECT_EQ(t.server_ch->stats().crc_failures_rx, 0u);
  EXPECT_GT(t.client_ch->stats().crc_stamped_tx, 0u);
}

TEST(ChannelIntegrity, TornZeroCopySourceCaughtAfterPullThenHealsOnRestore) {
  Pair t;
  t.establish();
  const std::uint32_t len = 128 * 1024;
  MemBlock blk = t.client.data_cache().alloc(len);
  ASSERT_TRUE(blk.valid());
  std::uint8_t* src = t.client.data_cache().data(blk);
  ASSERT_NE(src, nullptr);
  for (std::uint32_t i = 0; i < len; ++i) {
    src[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }

  std::vector<Buffer> got;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { got.push_back(std::move(m.payload)); });
  ASSERT_EQ(t.client_ch->send_msg(blk, len), Errc::ok);
  // Let the descriptor go out (its payload CRC snapshots the clean bytes),
  // then tear the source before the RDMA Read lands.
  for (int i = 0; i < 4000 && t.client_ch->stats().large_msgs_tx == 0; ++i) {
    t.run(micros(1));
  }
  ASSERT_EQ(t.client_ch->stats().large_msgs_tx, 1u);
  src[100] ^= 0xff;
  for (int i = 0; i < 4000 && t.server_ch->stats().crc_failures_rx == 0;
       ++i) {
    t.run(micros(5));
  }
  // The pulled bytes did not match the descriptor's CRC: dropped before
  // delivery, NAK'd back to us.
  ASSERT_GE(t.server_ch->stats().crc_failures_rx, 1u);
  EXPECT_TRUE(got.empty());
  const std::uint64_t reads_before = t.server_ch->stats().reads_issued;

  // Heal the source: the NAK-driven descriptor replay restarts the pull
  // and this time the bytes verify.
  src[100] ^= 0xff;
  t.run(millis(20));
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].size(), len);
  bool intact = true;
  for (std::uint32_t i = 0; i < len; ++i) {
    if (got[0].data()[i] != static_cast<std::uint8_t>(i * 131 + 7)) {
      intact = false;
      break;
    }
  }
  EXPECT_TRUE(intact);
  EXPECT_GT(t.server_ch->stats().reads_issued, reads_before);
  EXPECT_EQ(t.client_ch->state(), Channel::State::established);
}

TEST(ChannelIntegrity, PersistentCorruptionExhaustsRetriesWithTrueError) {
  // Every copy of the frame is corrupted (a torn staging path, not a peer
  // failure): after integrity_retry_max NAK rounds the sender surfaces
  // Errc::integrity_error — never folded into peer_dead, and with recovery
  // disabled the channel fails with that exact cause.
  Config cfg;
  cfg.integrity_retry_max = 2;
  cfg.recovery_max_attempts = 0;
  Pair t(cfg);
  t.establish();
  analysis::Filter tx_filter(t.client, /*seed=*/55);
  tx_filter.add_rule(
      {analysis::FaultKind::egress_corrupt, 1.0, 0, /*budget=*/-1, 0});

  Errc seen = Errc::ok;
  t.client_ch->set_on_error([&](Channel&, Errc e) { seen = e; });
  int got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
  t.client_ch->send_msg(Buffer::make(512));
  t.run(millis(20));

  EXPECT_EQ(got, 0);
  EXPECT_EQ(seen, Errc::integrity_error);
  EXPECT_EQ(t.client_ch->state(), Channel::State::error);
  EXPECT_EQ(t.client_ch->stats().integrity_exhausted, 1u);
  EXPECT_GE(t.server_ch->stats().crc_failures_rx, 3u);
}

TEST(ChannelIntegrity, PeerWithCrcDisabledNegotiatesFeatureOff) {
  // Online kill switch on ONE side: the handshake must converge on
  // CRC-free for both, no frame is stamped, traffic flows.
  Config crc_off;
  crc_off.e2e_crc = false;
  Pair t(Config{}, crc_off);
  t.establish();
  EXPECT_EQ(t.client_ch->proto_features() & kFeatE2eCrc, 0u);
  EXPECT_EQ(t.server_ch->proto_features() & kFeatE2eCrc, 0u);
  int got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
  t.client_ch->send_msg(Buffer::make(64));
  t.run(millis(5));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(t.client_ch->stats().crc_stamped_tx, 0u);
  EXPECT_EQ(t.server_ch->stats().crc_stamped_tx, 0u);
}

TEST(ChannelIntegrity, V1PeerNegotiatesCrcOff) {
  // Rolling upgrade: an old build speaks wire v1 with no feature bits; the
  // TLV carrying the CRC only exists on v2 headers, so the feature must
  // come out OFF even though our side has it enabled.
  Config old_cfg;
  old_cfg.proto_version_max = 1;
  old_cfg.proto_features = 0;
  Pair t(Config{}, old_cfg);
  t.establish();
  EXPECT_EQ(t.client_ch->proto_version(), 1);
  EXPECT_EQ(t.server_ch->proto_features() & kFeatE2eCrc, 0u);
  int got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
  t.client_ch->send_msg(Buffer::make(64));
  t.run(millis(5));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(t.server_ch->stats().crc_failures_rx, 0u);
}

TEST(ChannelIntegrity, EgressCorruptFilterNeverMutatesRetainedWindowBlock) {
  // Regression: the egress-corrupt filter used to flip a byte in the
  // channel's RETAINED wire block — the send window's retransmit template —
  // so recovery replayed the damage forever. The corruption must land on a
  // transient copy: corrupt the frame, drop it at ingress so the entry
  // stays unacked, then force a recovery replay and demand pristine bytes.
  // CRC off: this pins the filter/window contract itself, with no
  // integrity plane to paper over a mutated template.
  Config cfg;
  cfg.e2e_crc = false;
  Pair t(cfg);
  t.establish();
  analysis::Filter tx_filter(t.client, /*seed=*/41);
  analysis::Filter rx_filter(t.server, /*seed=*/42);
  tx_filter.add_rule(
      {analysis::FaultKind::egress_corrupt, 1.0, 0, /*budget=*/1, 0});
  rx_filter.add_rule(
      {analysis::FaultKind::ingress_drop, 1.0, 0, /*budget=*/1, 0});

  Buffer original = Buffer::make(4095);
  fill_pattern(original, 23);
  std::vector<Buffer> got;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { got.push_back(std::move(m.payload)); });
  t.client_ch->send_msg(original.clone());
  t.run(millis(5));
  EXPECT_EQ(tx_filter.injected(analysis::FaultKind::egress_corrupt), 1u);
  EXPECT_TRUE(got.empty());  // the corrupted copy was dropped on arrival

  tx_filter.kill_qp(*t.client_ch);
  t.run(millis(50));
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].size(), original.size());
  EXPECT_EQ(std::memcmp(got[0].data(), original.data(), original.size()), 0)
      << "recovery replayed a mutated window block";
}

}  // namespace
}  // namespace xrdma::core
