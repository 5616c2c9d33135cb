#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "analysis/exposition.hpp"
#include "analysis/metrics.hpp"
#include "apps/erpc.hpp"
#include "core/context.hpp"
#include "rnic/wire.hpp"
#include "sim/timer.hpp"
#include "tcpsim/tcp.hpp"
#include "testbed/cluster.hpp"

namespace perfbench {
namespace {

using namespace xrdma;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::size_t kPoolSpan = 1u << 20;      // payload offsets
constexpr std::uint32_t kMaxPayload = 256u << 10;
constexpr std::uint16_t kPort = 9000;
constexpr Nanos kStep = micros(20);         // sim time per main-loop iteration
constexpr Nanos kStallLimit = millis(250);  // no completion this long: lost
constexpr Nanos kDrainLimit = millis(300);
constexpr double kOverrunS = 55;  // wall time a run may overrun --seconds
constexpr std::size_t kSizeSample = 4096;   // sizes kept for the CRC probe

/// Seeded payload bytes: payload `key` of length n is n bytes of the pool
/// at a key-derived offset, so the receiver can rebuild what was sent.
class PayloadPool {
 public:
  explicit PayloadPool(std::uint64_t seed)
      : salt_(mix64(seed ^ 0x9a710adULL)), bytes_(kPoolSpan + kMaxPayload) {
    for (std::size_t i = 0; i < bytes_.size(); i += 8) {
      const std::uint64_t v = mix64(salt_ + i);
      std::memcpy(&bytes_[i], &v, 8);
    }
  }
  const std::uint8_t* at(std::uint64_t key) const {
    return bytes_.data() + mix64(salt_ ^ key) % kPoolSpan;
  }
  Buffer make(std::uint64_t key, std::uint32_t n) const {
    Buffer b = Buffer::make(n);
    std::memcpy(b.data(), at(key), n);
    return b;
  }

 private:
  std::uint64_t salt_;
  std::vector<std::uint8_t> bytes_;
};

/// Shared machinery: cluster and contexts, the bench-owned busy-poll loops,
/// op accounting (latency, digest, window snapshots) and the run loop.
class Base : public Workload {
 public:
  SetupInfo setup() final;
  RunResult run(const RunParams& p) final;

 protected:
  explicit Base(std::uint64_t seed)
      : seed_(seed), size_salt_(mix64(seed ^ 0x51a3ULL)), pool_(seed) {}

  // --- Workload hooks ------------------------------------------------------
  virtual void build() = 0;    // cluster, contexts, listeners
  virtual void connect() = 0;  // issue every connect
  virtual bool established() const = 0;
  virtual std::size_t connections() const = 0;
  virtual net::NodeId sink_node() const = 0;  // the receiving host
  virtual void start_traffic() = 0;
  virtual void after_poll(std::size_t /*ctx_index*/) {}
  virtual void add_counters(Counters& /*c*/) const {}
  virtual void stop_traffic() {}

  core::Context& add_context(net::NodeId node) {
    core::Config cfg;
    cfg.poll_mode = core::PollMode::busy;
    ctxs_.push_back(std::make_unique<core::Context>(cluster_->rnic(node),
                                                    cluster_->cm(), cfg));
    core::Context& ctx = *ctxs_.back();
    // The default epoch mixes in a process-global instance counter; pin it
    // so every run of one seed in this process is identical.
    ctx.set_trace_epoch(mix64(seed_ ^ (0xe90c0000ULL + node)) &
                        ~(0xffULL << 56));
    return ctx;
  }
  sim::Engine& engine() const { return cluster_->engine(); }
  void note_connected() { last_connected_ = engine().now(); }

  /// Size check, optional planted corruption, byte comparison against the
  /// seeded pool. Records the failure and returns false on error.
  bool verify(Buffer& got, std::uint64_t key, std::uint32_t n);
  void op_done(std::uint64_t stream, std::uint64_t key, std::uint32_t bytes,
               Nanos t_start);
  void op_failed(const std::string& why, std::uint64_t ops = 1);
  void note_size(std::uint32_t n) {
    if (sizes_.size() < kSizeSample) sizes_.push_back(n);
  }

  const std::uint64_t seed_;
  const std::uint64_t size_salt_;
  const PayloadPool pool_;
  std::unique_ptr<testbed::Cluster> cluster_;
  std::vector<std::unique_ptr<core::Context>> ctxs_;
  bool draining_ = false;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;

 private:
  void poll_step(std::size_t i);
  void install_rx_spans();
  Counters snapshot() const;
  void sim_run(Nanos until);

  RunParams params_;
  Nanos last_connected_ = 0;
  bool polling_on_ = false;
  std::uint64_t failed_ = 0;
  std::string first_error_;
  std::uint64_t bytes_done_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
  double qsum_ = 0;
  std::uint64_t qn_ = 0;
  bool window_done_ = false;
  Counters w0_, w1_;
  std::vector<Nanos> latencies_;
  std::vector<std::uint32_t> sizes_;
};

SetupInfo Base::setup() {
  SetupInfo info;
  build();
  const std::int64_t cpu0 = thread_cpu_ns();
  const Nanos t0 = engine().now();
  connect();
  const Nanos limit = t0 + millis(200);
  while (!established() && engine().now() < limit) {
    engine().run_until(engine().now() + micros(100));
  }
  info.ok = established();
  info.connect_cpu_ns = thread_cpu_ns() - cpu0;
  info.connect_sim_us = static_cast<double>(last_connected_ - t0) / 1e3;
  info.connections = connections();
  return info;
}

void Base::poll_step(std::size_t i) {
  if (!polling_on_) return;
  // Mean event-queue depth, sampled once per poll: deterministic, and the
  // depth at which the empty-event probe calibrates the engine.
  qsum_ += static_cast<double>(engine().pending());
  ++qn_;
  core::Context& ctx = *ctxs_[i];
  {
    Span span(Layer::core_poll);
    ctx.polling();
  }
  after_poll(i);
  // Same order as Context::start_polling_loop in busy mode: poll, then
  // reschedule one busy_poll_interval later.
  engine().schedule_after(ctx.config().busy_poll_interval,
                          [this, i] { poll_step(i); });
}

void Base::install_rx_spans() {
  // Same demux as testbed::Host, with Rnic::on_packet inside a span.
  for (int h = 0; h < cluster_->num_hosts(); ++h) {
    testbed::Host& host = cluster_->host(static_cast<net::NodeId>(h));
    host.endpoint().set_rx([&host](net::Packet&& pkt) {
      if (dynamic_cast<const rnic::RnicPacket*>(pkt.payload.get())) {
        Span span(Layer::rnic_rx);
        host.rnic().on_packet(std::move(pkt));
      } else if (dynamic_cast<const tcpsim::TcpSegment*>(pkt.payload.get())) {
        host.tcp().on_packet(std::move(pkt));
      }
    });
  }
}

bool Base::verify(Buffer& got, std::uint64_t key, std::uint32_t n) {
  if (got.size() != n || got.is_synthetic()) {
    op_failed("op " + std::to_string(completed_) + ": " +
              std::to_string(got.size()) + " bytes, expected " +
              std::to_string(n));
    return false;
  }
  std::uint8_t* d = got.data();
  if (static_cast<std::int64_t>(completed_) == params_.corrupt_op && n > 0) {
    d[n / 2] ^= 0x40;
  }
  if (n > 0 && std::memcmp(d, pool_.at(key), n) != 0) {
    op_failed("op " + std::to_string(completed_) + ": payload bytes differ");
    return false;
  }
  return true;
}

void Base::op_done(std::uint64_t stream, std::uint64_t key,
                   std::uint32_t bytes, Nanos t_start) {
  const Nanos now = engine().now();
  ++completed_;
  bytes_done_ += bytes;
  const std::uint64_t w_end = params_.warmup_ops + params_.window_ops;
  if (completed_ > params_.warmup_ops && completed_ <= w_end) {
    latencies_.push_back(now - t_start);
    // Delivery order, sim timestamps and content; never event counts, so
    // removing redundant engine events leaves the digest unchanged. The
    // content is a function of (seed, key, bytes), and verify() has already
    // compared every delivered byte with it.
    for (std::uint64_t v : {stream, key, std::uint64_t(bytes),
                            std::uint64_t(t_start), std::uint64_t(now)}) {
      digest_ = mix64(digest_ ^ v);
    }
  }
  if (completed_ == params_.warmup_ops) w0_ = snapshot();
  if (completed_ == w_end) {
    w1_ = snapshot();
    window_done_ = true;
  }
}

void Base::op_failed(const std::string& why, std::uint64_t ops) {
  failed_ += ops;
  if (first_error_.empty()) first_error_ = why;
}

Counters Base::snapshot() const {
  Counters c;
  c.sim_ns = engine().now();
  c.payload_bytes = bytes_done_;
  c.events = engine().events_processed();
  c.queue_depth_sum = qsum_;
  c.queue_samples = qn_;
  const LayerTotals t = tracer().totals();
  c.spans = t.spans;
  c.allocs = t.allocs;

  net::Fabric& fabric = cluster_->fabric();
  const net::FabricStats fs = fabric.stats();
  c.ecn_marks = fs.ecn_marks;
  c.pause_frames = fs.pause_frames;
  c.drops = fs.drops;
  c.max_queue_bytes = fabric.host_ingress_port_stats(sink_node()).max_queue_bytes;
  for (int h = 0; h < cluster_->num_hosts(); ++h) {
    const auto node = static_cast<net::NodeId>(h);
    c.net_pkts += fabric.endpoint(node).tx_stats().tx_packets;
    const rnic::RnicStats& rs = cluster_->rnic(node).stats();
    c.doorbells += rs.doorbells;
    c.wrs_posted += rs.wrs_posted;
    c.inline_wrs += rs.inline_wrs;
    c.qp_cache_hits += rs.qp_cache_hits;
    c.qp_cache_misses += rs.qp_cache_misses;
    c.retransmits += rs.retransmitted_packets;
    c.rnr_naks += rs.rnr_naks_sent;
  }
  for (const auto& ctx : ctxs_) {
    c.polls += ctx->stats().polls;
    c.empty_polls += ctx->stats().empty_polls;
    for (core::Channel* ch : ctx->channels()) {
      const core::ChannelStats& s = ch->stats();
      c.msgs_tx += s.msgs_tx;
      c.acks_tx += s.acks_tx;
      c.copies_avoided += s.eager_copies_avoided;
      c.reads += s.reads_issued;
      c.window_stalls += s.window_stalls;
      c.crc_frames += s.crc_stamped_tx;
    }
    for (core::MemCache* mc : {&ctx->ctrl_cache(), &ctx->data_cache()}) {
      c.mem_alloc_calls += mc->stats().alloc_calls;
      c.mem_occupied_bytes += mc->stats().occupied_bytes;
    }
    c.recorder_records += ctx->recorder().appended();
  }
  add_counters(c);
  return c;
}

void Base::sim_run(Nanos until) {
  Span span(Layer::sim);
  engine().run_until(until);
}

RunResult Base::run(const RunParams& p) {
  params_ = p;
  RunResult r;
  latencies_.reserve(p.window_ops);
  if (p.traced) install_rx_spans();
  Tracer& tr = tracer();
  tr.reset();
  tr.set_enabled(p.traced);

  std::vector<double>& chunk_ns = r.chunk_ns_per_op;
  chunk_ns.reserve(1u << 16);
  polling_on_ = true;
  for (std::size_t i = 0; i < ctxs_.size(); ++i) {
    engine().schedule_after(0, [this, i] { poll_step(i); });
  }
  {
    Span span(Layer::app);
    start_traffic();
  }

  const std::int64_t wall0 = now_ns();
  bool measuring = false;
  std::int64_t cpu_mark = 0, cpu_first = 0;
  std::uint64_t ops_mark = 0, ops_first = 0;
  std::uint64_t last_completed = 0;
  Nanos last_progress = engine().now();
  while (true) {
    {
      // Every main-loop iteration is one root span, so the layers' self
      // times partition the traced interval.
      Span root(Layer::app);
      sim_run(engine().now() + kStep);
    }
    if (failed_ > 0) break;
    if (!measuring && completed_ >= p.warmup_ops) {
      measuring = true;
      cpu_mark = cpu_first = thread_cpu_ns();
      ops_mark = ops_first = completed_;
      r.h0 = r.h1 = tr.totals();
      if (p.traced) tr.start_sampling(p.trace_samples);
    } else if (measuring && completed_ - ops_mark >= p.chunk_ops) {
      const std::int64_t cpu = thread_cpu_ns();
      chunk_ns.push_back(static_cast<double>(cpu - cpu_mark) /
                         static_cast<double>(completed_ - ops_mark));
      cpu_mark = cpu;
      ops_mark = completed_;
      r.h1 = tr.totals();
      r.host_cpu_ns = cpu - cpu_first;
      r.host_ops = completed_ - ops_first;
    }
    if (completed_ != last_completed) {
      last_completed = completed_;
      last_progress = engine().now();
    } else if (engine().now() - last_progress > kStallLimit) {
      op_failed("no op completed for " +
                std::to_string(kStallLimit / 1'000'000) + " ms of sim time");
      break;
    }
    const double wall = static_cast<double>(now_ns() - wall0) / 1e9;
    if (window_done_ && chunk_ns.size() >= 3 && wall >= p.seconds) break;
    if (wall > p.seconds + kOverrunS) {
      op_failed("measurement window not reached within the wall limit");
      break;
    }
  }
  tr.set_enabled(false);

  // Drain: stop issuing, let every outstanding op land; what never lands
  // is missing and counts as failed.
  draining_ = true;
  stop_traffic();
  const Nanos drain_end = engine().now() + kDrainLimit;
  while (failed_ == 0 && issued_ > completed_ && engine().now() < drain_end) {
    engine().run_until(engine().now() + kStep);
  }
  if (failed_ == 0 && issued_ > completed_) {
    const std::uint64_t missing = issued_ - completed_;
    op_failed(std::to_string(missing) + " ops never completed", missing);
  }
  polling_on_ = false;

  r.attempted = issued_;
  r.failed = failed_;
  r.ok = failed_ == 0 && window_done_;
  r.error = first_error_;
  if (!window_done_ && r.error.empty()) r.error = "window not reached";
  r.window_ops = p.window_ops;
  r.digest = digest_;
  r.payload_sizes = sizes_;
  if (window_done_) {
    r.w0 = w0_;
    r.w1 = w1_;
    const double dt = static_cast<double>(w1_.sim_ns - w0_.sim_ns);
    r.sim_ops_per_s = static_cast<double>(p.window_ops) * 1e9 / dt;
    r.sim_goodput_gbps =
        static_cast<double>(w1_.payload_bytes - w0_.payload_bytes) * 8 / dt;
    std::sort(latencies_.begin(), latencies_.end());
    // Sends and deliveries happen on poll ticks, so latencies are multiples
    // of the poll interval h and a plain order statistic reads the same
    // value for most seeds. Use the grouped-data quantile instead: treat
    // the f samples equal to v as spread over [v - h/2, v + h/2) and
    // interpolate to rank q*n within that class.
    const auto h = static_cast<double>(ctxs_[0]->config().busy_poll_interval);
    const auto pct = [&](double q) {
      const double rank = q * static_cast<double>(latencies_.size());
      const std::size_t idx =
          std::min(static_cast<std::size_t>(rank), latencies_.size() - 1);
      const Nanos v = latencies_[idx];
      const auto lo = std::lower_bound(latencies_.begin(), latencies_.end(), v);
      const auto hi = std::upper_bound(lo, latencies_.end(), v);
      const auto below = static_cast<double>(lo - latencies_.begin());
      const auto f = static_cast<double>(hi - lo);
      return (static_cast<double>(v) - h / 2 + h * (rank - below) / f) / 1e3;
    };
    r.sim_p50_us = pct(0.50);
    r.sim_p99_us = pct(0.99);
  }
  return r;
}

// ---------------------------------------------------------------------------
// eager_flood and bulk_pull: one channel between two hosts, a closed loop
// that keeps `outstanding` one-way messages sent but not yet delivered. The
// sender tops up on its own poll; counting undelivered (not unacknowledged)
// messages keeps the ack cadence from gating the offered load.

class StreamBench final : public Base {
 public:
  StreamBench(std::uint64_t seed, bool bulk)
      : Base(seed), bulk_(bulk), outstanding_(bulk ? 16 : 64) {}

  RunParams defaults() const override {
    RunParams p;
    p.warmup_ops = bulk_ ? 200 : 20000;
    p.window_ops = bulk_ ? 8000 : 100000;
    p.chunk_ops = bulk_ ? 100 : 10000;
    return p;
  }

 private:
  static constexpr std::size_t kRing = 1024;

  void build() override {
    testbed::ClusterConfig cc;
    cc.fabric = net::ClosConfig::pair();
    cc.fabric.seed = seed_;
    cluster_ = std::make_unique<testbed::Cluster>(cc);
    sender_ = &add_context(0);
    receiver_ = &add_context(1);
    receiver_->listen(kPort, [this](core::Channel& ch) {
      rx_ch_ = &ch;
      ch.set_on_msg([this](core::Channel&, core::Msg&& m) { on_msg(m); });
    });
  }

  void connect() override {
    sender_->connect(1, kPort, [this](Result<core::Channel*> r) {
      if (r.ok()) {
        tx_ch_ = r.value();
        note_connected();
      }
    });
  }

  bool established() const override {
    return tx_ch_ && rx_ch_ && tx_ch_->usable() && rx_ch_->usable();
  }
  std::size_t connections() const override { return 1; }
  net::NodeId sink_node() const override { return 1; }
  void start_traffic() override { top_up(); }
  void after_poll(std::size_t i) override {
    if (i == 0) top_up();
  }

  /// eager_flood: 1..512 B, 3/4 of them <= 256 B (the inline limit).
  /// bulk_pull: log-uniform over [4 KiB + 1, 256 KiB], all rendezvous.
  std::uint32_t size_of(std::uint64_t k) const {
    const std::uint64_t r = mix64(size_salt_ + k);
    if (!bulk_) {
      const auto v = static_cast<std::uint32_t>((r >> 8) % 256);
      return (r & 3) != 0 ? 1 + v : 257 + v;
    }
    const double lo = std::log(4097.0), hi = std::log(double(kMaxPayload));
    const double u = static_cast<double>(r >> 11) * 0x1.0p-53;
    const auto n = static_cast<std::uint32_t>(std::exp(lo + u * (hi - lo)));
    return std::clamp<std::uint32_t>(n, 4097, kMaxPayload);
  }

  void top_up() {
    if (draining_ || tx_ch_ == nullptr) return;
    Span span(Layer::app);
    while (issued_ - completed_ < outstanding_) {
      const std::uint64_t k = tx_next_;
      const std::uint32_t n = size_of(k);
      note_size(n);
      Buffer b = pool_.make(k, n);
      send_time_[k % kRing] = engine().now();
      Errc rc;
      {
        Span tx(Layer::core_tx);
        rc = tx_ch_->send_msg(std::move(b));
      }
      if (rc != Errc::ok) {
        op_failed("send_msg: " + std::string(errc_name(rc)));
        return;
      }
      ++tx_next_;
      ++issued_;
    }
  }

  void on_msg(core::Msg& m) {
    Span span(Layer::app);
    const std::uint64_t k = rx_next_++;
    const std::uint32_t n = size_of(k);
    if (!verify(m.payload, k, n)) return;
    op_done(0, k, n, send_time_[k % kRing]);
  }

  const bool bulk_;
  const std::size_t outstanding_;
  core::Context* sender_ = nullptr;
  core::Context* receiver_ = nullptr;
  core::Channel* tx_ch_ = nullptr;
  core::Channel* rx_ch_ = nullptr;
  std::uint64_t tx_next_ = 0;
  std::uint64_t rx_next_ = 0;
  std::array<Nanos, kRing> send_time_{};
};

// ---------------------------------------------------------------------------
// rpc_fanin: 8 eRPC clients (hosts 1..8) x 4 outstanding calls against one
// eRPC server (host 0), with a Monitor-style scrape of every context each
// simulated millisecond.

class RpcBench final : public Base {
 public:
  explicit RpcBench(std::uint64_t seed) : Base(seed) {}

  RunParams defaults() const override {
    RunParams p;
    p.warmup_ops = 5000;
    p.window_ops = 50000;
    p.chunk_ops = 1000;
    return p;
  }

 private:
  static constexpr int kClients = 8;
  static constexpr int kPerClient = 4;
  static constexpr apps::erpc::MethodId kMethod = 1;
  static constexpr std::uint64_t kRspSalt = 0x7e5b0115eULL;
  static constexpr std::uint32_t kHdr = 16;  // key u64, rsp_len u32, req_len u32

  void build() override {
    testbed::ClusterConfig cc = testbed::ClusterConfig::rack(kClients + 1);
    cc.fabric.seed = seed_;
    cluster_ = std::make_unique<testbed::Cluster>(cc);
    for (int n = 0; n <= kClients; ++n) {
      add_context(static_cast<net::NodeId>(n));
    }
    server_ = std::make_unique<apps::erpc::Server>(*ctxs_[0], kPort);
    server_->register_method(kMethod, [this](apps::erpc::Server::Call call) {
      serve(std::move(call));
    });
    for (auto& ctx : ctxs_) {
      metrics_.push_back(std::make_unique<analysis::ContextMetrics>(*ctx));
    }
    scrape_timer_ = std::make_unique<sim::PeriodicTimer>(
        engine(), millis(1), [this] { scrape(); });
  }

  void connect() override {
    for (int c = 0; c < kClients; ++c) {
      stubs_.push_back(std::make_unique<apps::erpc::ClientStub>(
          *ctxs_[static_cast<std::size_t>(c) + 1], 0, kPort));
      stubs_.back()->connect([this](Errc e) {
        if (e == Errc::ok) {
          ++ready_;
          note_connected();
        }
      });
    }
  }

  bool established() const override {
    if (ready_ != kClients || ctxs_[0]->num_channels() != kClients) {
      return false;
    }
    for (core::Channel* ch : ctxs_[0]->channels()) {
      if (!ch->usable()) return false;
    }
    return true;
  }
  std::size_t connections() const override { return kClients; }
  net::NodeId sink_node() const override { return 0; }

  void start_traffic() override {
    scrape_timer_->start();
    for (int k = 0; k < kPerClient; ++k) {
      for (int c = 0; c < kClients; ++c) issue(static_cast<std::size_t>(c));
    }
  }
  void stop_traffic() override { scrape_timer_->stop(); }

  void add_counters(Counters& c) const override {
    for (const auto& s : stubs_) c.erpc_retries += s->retries();
    c.erpc_shed = server_->calls_shed();
    c.series = series_;
  }

  void issue(std::size_t c) {
    const std::uint64_t key = (static_cast<std::uint64_t>(c + 1) << 40) |
                              next_call_[c]++;
    const std::uint64_t r = mix64(size_salt_ ^ key);
    const auto req_len = static_cast<std::uint32_t>(32 + r % 993);
    // 90% eager responses (<= 1 KiB), 10% rendezvous (16..64 KiB).
    const auto rsp_len = static_cast<std::uint32_t>(
        (r >> 16) % 10 == 0 ? (16u << 10) + (r >> 24) % ((48u << 10) + 1)
                            : 16 + (r >> 24) % 1009);
    note_size(req_len);
    note_size(rsp_len);
    Buffer req = Buffer::make(req_len);
    std::memcpy(req.data(), &key, 8);
    std::memcpy(req.data() + 8, &rsp_len, 4);
    std::memcpy(req.data() + 12, &req_len, 4);
    std::memcpy(req.data() + kHdr, pool_.at(key), req_len - kHdr);
    const Nanos t0 = engine().now();
    Errc rc;
    {
      Span span(Layer::apps_erpc);
      rc = stubs_[c]->call(
          kMethod, std::move(req),
          [this, c, key, req_len, rsp_len, t0](Result<Buffer> res) {
            on_response(c, key, req_len + rsp_len, rsp_len, t0,
                        std::move(res));
          });
    }
    if (rc != Errc::ok) {
      op_failed("call: " + std::string(errc_name(rc)));
      return;
    }
    ++issued_;
  }

  void on_response(std::size_t c, std::uint64_t key, std::uint32_t bytes,
                   std::uint32_t rsp_len, Nanos t0, Result<Buffer> res) {
    Span span(Layer::app);
    if (!res.ok()) {
      op_failed("rpc: " + std::string(errc_name(res.error())));
      return;
    }
    if (!verify(res.value(), key ^ kRspSalt, rsp_len)) return;
    op_done(c, key, bytes, t0);
    if (!draining_) issue(c);
  }

  /// Server method: check the request against the seeded pool, answer
  /// with the response bytes its header asks for.
  void serve(apps::erpc::Server::Call call) {
    Span span(Layer::app);
    const Buffer& q = call.request;
    std::uint64_t key = 0;
    std::uint32_t rsp_len = 0, req_len = 0;
    bool good = q.size() >= kHdr && !q.is_synthetic();
    if (good) {
      std::memcpy(&key, q.data(), 8);
      std::memcpy(&rsp_len, q.data() + 8, 4);
      std::memcpy(&req_len, q.data() + 12, 4);
      good = req_len == q.size() && rsp_len <= kMaxPayload &&
             std::memcmp(q.data() + kHdr, pool_.at(key), req_len - kHdr) == 0;
    }
    if (!good) {
      Span erpc(Layer::erpc_respond);
      call.respond_error(Errc::bad_message);
      return;
    }
    Buffer rsp = pool_.make(key ^ kRspSalt, rsp_len);
    Span erpc(Layer::erpc_respond);
    call.respond(std::move(rsp));
  }

  void scrape() {
    std::uint64_t series = 0;
    for (auto& m : metrics_) {
      Span span(Layer::analysis);
      analysis::MetricsRegistry& reg = m->registry();
      analysis::prometheus_render(reg);
      series += reg.counters().size() + reg.gauges().size() +
                reg.histograms().size();
    }
    series_ = series;
  }

  std::unique_ptr<apps::erpc::Server> server_;
  std::vector<std::unique_ptr<apps::erpc::ClientStub>> stubs_;
  std::vector<std::unique_ptr<analysis::ContextMetrics>> metrics_;
  std::unique_ptr<sim::PeriodicTimer> scrape_timer_;
  std::array<std::uint64_t, kClients> next_call_{};
  int ready_ = 0;
  std::uint64_t series_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"eager_flood", "bulk_pull",
                                                 "rpc_fanin"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "eager_flood") return std::make_unique<StreamBench>(seed, false);
  if (name == "bulk_pull") return std::make_unique<StreamBench>(seed, true);
  if (name == "rpc_fanin") return std::make_unique<RpcBench>(seed);
  return nullptr;
}

}  // namespace perfbench
