// Microbenchmarks (google-benchmark) for the hot-path data structures: the
// event engine, the seq-ack window, the memory-cache allocator, memory
// registration, context set-up and channel establishment, histogram
// recording, wire header encode/decode, the CRC32C integrity checksum,
// payload buffer copies and the empty busy poll.
// These bound the simulator's own throughput (events/sec) and the
// middleware's per-message CPU work.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include <sys/resource.h>

#include "common/crc32c.hpp"
#include "common/histogram.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "core/memcache.hpp"
#include "core/msg.hpp"
#include "core/context.hpp"
#include "core/window.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"
#include "sim/timer.hpp"
#include "testbed/cluster.hpp"
#include "testbed/pair.hpp"

namespace {

using namespace xrdma;

void BM_EngineScheduleFire(benchmark::State& state) {
  sim::Engine eng;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    eng.schedule_after(100, [&sink] { ++sink; });
    eng.step();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EngineScheduleFire);

void BM_EngineScheduleFireNonTrivial(benchmark::State& state) {
  // BM_EngineScheduleFire with a capture shaped like the fabric's
  // end-of-serialization event, [this, port_index, qd = Port::Queued{pkt,
  // ingress}]: 72 B and not trivially destructible (the packet's payload is
  // a shared_ptr), so its move into the node and its destroy when the node
  // is recycled both do real work.
  struct Queued {
    net::Packet pkt;
    int ingress;
  };
  sim::Engine eng;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    Queued qd{net::Packet{}, -1};
    qd.pkt.wire_bytes = 1100;
    eng.schedule_after(100, [&sink, port = 3, qd = std::move(qd)] {
      sink += qd.pkt.wire_bytes + static_cast<std::uint64_t>(port);
    });
    eng.step();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EngineScheduleFireNonTrivial);

void BM_EngineDeepQueue(benchmark::State& state) {
  // Scheduling into a queue that already holds `depth` pending events. They
  // are parked ~28 sim hours out: at 100 ns per iteration no run reaches
  // them, so the queue never drains mid-run.
  const int depth = static_cast<int>(state.range(0));
  sim::Engine eng;
  std::uint64_t sink = 0;
  for (int i = 0; i < depth; ++i) {
    eng.schedule_after(seconds(100'000) + i, [&sink] { ++sink; });
  }
  for (auto _ : state) {
    eng.schedule_after(100, [&sink] { ++sink; });
    eng.step();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EngineDeepQueue)->Arg(1000)->Arg(100000);

void BM_EngineHold(benchmark::State& state) {
  // The hold model at perfbench's measured mean queue depths (15 events on
  // eager_flood, 71 on rpc_fanin), with delays drawn from the simulator's
  // own schedule_at census: 50% a 100 ns busy poll, 25% a 250-650 ns link
  // hop or RNIC overhead, 22% a 0.6-2 us frame; the other 3% re-arm one of
  // four ms-scale timers (keepalive, MemCache, retransmit), which are
  // pushed back long before they fire. A near draw fires the earliest event
  // and schedules its replacement, so the depth stays fixed. Draws are
  // precomputed, so the RNG stays out of the timing.
  constexpr int kTimers = 4;
  const int depth = static_cast<int>(state.range(0));
  struct Draw {
    Nanos delay;
    int timer;  // -1: a near event
  };
  Rng rng(1);
  std::vector<Draw> draws(4096);
  for (Draw& d : draws) {
    const auto r = rng.next_below(100);
    if (r < 50) {
      d = {100, -1};
    } else if (r < 75) {
      d = {rng.uniform(250, 650), -1};
    } else if (r < 97) {
      d = {rng.uniform(600, 2000), -1};
    } else {
      d = {rng.uniform(millis(1), millis(15)),
           static_cast<int>(rng.next_below(kTimers))};
    }
  }
  sim::Engine eng;
  std::uint64_t sink = 0;
  const auto cb = [&sink] { ++sink; };
  std::vector<sim::Engine::EventId> timers(kTimers);
  for (auto& t : timers) t = eng.schedule_after(millis(15), cb);
  for (int i = kTimers; i < depth; ++i) {
    eng.schedule_after(draws[static_cast<std::size_t>(i)].delay, cb);
  }
  std::size_t k = 0;
  for (auto _ : state) {
    const Draw& d = draws[k++ % draws.size()];
    if (d.timer < 0) {
      eng.step();
      eng.schedule_after(d.delay, cb);
    } else {
      auto& t = timers[static_cast<std::size_t>(d.timer)];
      eng.cancel(t);
      t = eng.schedule_after(d.delay, cb);
    }
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EngineHold)->Arg(15)->Arg(71);

void BM_EngineDeadlineChurn(benchmark::State& state) {
  // The keepalive / MemCache pattern: one DeadlineTimer pushed back on every
  // message while 3000 far-future events stay pending. Each re-arm cancels
  // the previous deadline, leaving a stale heap entry for compaction.
  sim::Engine eng;
  std::uint64_t sink = 0;
  for (int i = 0; i < 3000; ++i) {
    eng.schedule_after(seconds(1) + i, [&sink] { ++sink; });
  }
  sim::DeadlineTimer timer(eng, [&sink] { ++sink; });
  for (auto _ : state) timer.arm_after(millis(15));
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EngineDeadlineChurn);

void BM_RingBufferPushPop(benchmark::State& state) {
  RingBuffer<std::uint64_t> ring(64);
  std::uint64_t v = 0;
  for (auto _ : state) {
    ring.push(v++);
    benchmark::DoNotOptimize(ring.pop());
  }
}
BENCHMARK(BM_RingBufferPushPop);

void BM_SendWindowCycle(benchmark::State& state) {
  core::SendWindow<std::uint64_t> win(64);
  core::Seq seq = 0;
  for (auto _ : state) {
    win.push(seq);
    win.process_ack(seq + 1, [](core::Seq, std::uint64_t&) {});
    ++seq;
  }
}
BENCHMARK(BM_SendWindowCycle);

void BM_RecvWindowCycle(benchmark::State& state) {
  core::RecvWindow<std::uint64_t> win(64);
  core::Seq seq = 0;
  for (auto _ : state) {
    win.arrive(seq);
    win.complete(seq, [](core::Seq, std::uint64_t&) {});
    win.note_ack_sent();
    ++seq;
  }
}
BENCHMARK(BM_RecvWindowCycle);

void BM_MemCacheAllocFree(benchmark::State& state) {
  testbed::Cluster cluster;
  core::MemCacheConfig cfg;
  cfg.isolation = state.range(0) != 0;
  core::MemCache cache(cluster.rnic(0), cfg);
  for (auto _ : state) {
    core::MemBlock b = cache.alloc(4096);
    cache.free(b);
  }
}
BENCHMARK(BM_MemCacheAllocFree)->Arg(0)->Arg(1);

void BM_RegMr(benchmark::State& state, std::uint64_t bytes) {
  // Registering and deregistering one real MR of the memory cache's size:
  // the set-up cost every context pays twice (ctrl and data cache).
  testbed::Cluster cluster;
  rnic::Rnic& nic = cluster.rnic(0);
  for (auto _ : state) {
    const rnic::MrInfo mr = nic.reg_mr(bytes);
    benchmark::DoNotOptimize(nic.mr_ptr(mr.addr, bytes));
    nic.dereg_mr(mr.lkey);
  }
}
BENCHMARK_CAPTURE(BM_RegMr, 4MiB, std::uint64_t{4} << 20);

void BM_ContextSetup(benchmark::State& state) {
  // Building and tearing down one busy-mode context on a 2-host cluster:
  // its two memory caches, CQs, recorder and scan timers.
  testbed::Cluster cluster;
  core::Config cfg;
  cfg.poll_mode = core::PollMode::busy;
  for (auto _ : state) {
    core::Context ctx(cluster.rnic(0), cluster.cm(), cfg);
    benchmark::DoNotOptimize(&ctx);
  }
}
BENCHMARK(BM_ContextSetup);

void BM_ChannelEstablish(benchmark::State& state) {
  // One connection between two fresh contexts on a fresh 2-host cluster,
  // timed from connect() until both ends hold a usable channel: the CM
  // handshake, QP bring-up and both ends' pre-posted bounce buffers.
  // Building and tearing down the cluster and contexts is not timed.
  // minor_faults is per connection (getrusage, this thread).
  long faults = 0;
  for (auto _ : state) {
    state.PauseTiming();
    {
      testbed::Cluster cluster;
      core::Context server(cluster.rnic(1), cluster.cm());
      core::Context client(cluster.rnic(0), cluster.cm());
      core::Channel* accepted = nullptr;
      core::Channel* connected = nullptr;
      server.listen(7000, [&](core::Channel& c) { accepted = &c; });
      rusage before{};
      getrusage(RUSAGE_THREAD, &before);
      state.ResumeTiming();
      client.connect(1, 7000, [&](Result<core::Channel*> r) {
        if (r.ok()) connected = r.value();
      });
      while (!(accepted && connected) && cluster.engine().step()) {
      }
      state.PauseTiming();
      rusage after{};
      getrusage(RUSAGE_THREAD, &after);
      faults += after.ru_minflt - before.ru_minflt;
      if (!(accepted && connected)) state.SkipWithError("connect failed");
    }
    state.ResumeTiming();
  }
  state.counters["minor_faults"] = benchmark::Counter(
      static_cast<double>(faults), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ChannelEstablish);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(3);
  for (auto _ : state) {
    h.record(static_cast<std::int64_t>(rng.next_below(1u << 20)));
  }
  benchmark::DoNotOptimize(h.percentile(99));
}
BENCHMARK(BM_HistogramRecord);

void BM_WireHeaderEncodeDecode(benchmark::State& state) {
  core::WireHeader hdr;
  hdr.flags = core::kFlagRpcReq | core::kFlagTraced;
  hdr.seq = 123456;
  hdr.ack = 123450;
  hdr.payload_len = 4096;
  std::uint8_t buf[128];
  for (auto _ : state) {
    hdr.encode(buf);
    core::WireHeader out;
    benchmark::DoNotOptimize(
        core::WireHeader::decode(buf, sizeof(buf), out));
  }
}
BENCHMARK(BM_WireHeaderEncodeDecode);

void BM_Crc32c(benchmark::State& state) {
  // The integrity plane's per-byte cost: one CRC32C over `range(0)` bytes,
  // on whichever kernel crc32c() dispatched to on this host.
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + (i >> 9));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.SetLabel(crc32c_hardware() ? "sse4.2" : "portable");
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(2048)->Arg(65536);

void BM_BufferCopyOf(benchmark::State& state) {
  // One payload copy into a fresh buffer, as the RNIC's fragment fill and
  // the channel's rx path make it: a pooled block, no zero-fill first.
  std::vector<std::uint8_t> src(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (auto _ : state) {
    Buffer b = Buffer::copy_of(src.data(), src.size());
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BufferCopyOf)->Arg(64)->Arg(4096);

void BM_BufferMakeMemcpy(benchmark::State& state) {
  // The same copy made as a zero-filled buffer and a memcpy over it: the
  // baseline BM_BufferCopyOf is read against.
  std::vector<std::uint8_t> src(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (auto _ : state) {
    Buffer b = Buffer::make(src.size());
    std::memcpy(b.data(), src.data(), src.size());
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BufferMakeMemcpy)->Arg(64)->Arg(4096);

void BM_ContextEmptyPoll(benchmark::State& state) {
  // Host cost of one busy poll that finds both CQs empty, on an idle
  // connected context: most polls of the run-to-complete loop (§IV-B).
  // Sim time stands still, so no poll gap trips the watchdog.
  testbed::Pair pair;
  if (!pair.connect(7000, millis(30))) {
    state.SkipWithError("connect failed");
    return;
  }
  core::Context& client = pair.client;
  while (client.polling() > 0) {
  }
  const std::uint64_t empty_before = client.stats().empty_polls;
  for (auto _ : state) benchmark::DoNotOptimize(client.polling());
  state.counters["empty_share"] =
      static_cast<double>(client.stats().empty_polls - empty_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_ContextEmptyPoll);

void BM_EagerSmallSendTxPath(benchmark::State& state) {
  // Sender-side cost of one 64 B eager message with inline sends off
  // (Arg 0: MemCache staging copy + simulated DMA) vs on (Arg 1: payload
  // rides in the WQE). The exported counter proves the staging copy is
  // actually skipped, not just cheaper.
  core::Config cfg;
  if (state.range(0) == 0) cfg.inline_max = 0;
  testbed::Pair pair(cfg);
  if (!pair.connect(7000, millis(30))) {
    state.SkipWithError("connect failed");
    return;
  }
  core::Channel* ch = pair.client_ch;
  std::uint64_t delivered = 0;
  pair.server_ch->set_on_msg([&](core::Channel&, core::Msg&&) { ++delivered; });
  for (auto _ : state) {
    ch->send_msg(Buffer::make(64));
    pair.client.polling();
    pair.server.polling();
    pair.run(micros(20));
  }
  benchmark::DoNotOptimize(delivered);
  state.counters["eager_copies_avoided"] = static_cast<double>(
      ch->stats().eager_copies_avoided);
  state.counters["inline_sends"] = static_cast<double>(
      ch->stats().inline_sends);
}
BENCHMARK(BM_EagerSmallSendTxPath)->Arg(0)->Arg(1);

void BM_FullStackSmallMessage(benchmark::State& state) {
  // End-to-end simulator cost of one small message (wall time per
  // simulated message, all layers included).
  testbed::Pair pair;
  if (!pair.connect(7000, millis(30))) {
    state.SkipWithError("connect failed");
    return;
  }
  std::uint64_t delivered = 0;
  pair.server_ch->set_on_msg([&](core::Channel&, core::Msg&&) { ++delivered; });
  for (auto _ : state) {
    pair.client_ch->send_msg(Buffer::synthetic(64));
    pair.client.polling();
    pair.server.polling();
    pair.run(micros(20));
  }
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_FullStackSmallMessage);

}  // namespace

BENCHMARK_MAIN();
