// Outside-in span tracer and heap-allocation counter for the benchmark.
//
// Spans are opened from the benchmark's own code around the calls it makes
// into each layer's public functions (and, through link-time wrapping, the
// calls the eRPC layer makes into the core channel). Nothing inside the
// library is instrumented. A span's self time is its duration minus the
// time of the spans nested in it, so the self times of every layer
// partition the traced interval exactly. Spans are timed on the steady
// (wall) clock, which is cheap enough to read twice per span; reading
// thread CPU time costs a system call. The traced run compares the sum
// against the interval's thread CPU time and warns when they differ.
//
// The replaced global operator new (tracer.cpp) charges every allocation
// to the innermost open span, or to "outside" when none is open. Counts are
// exact and repeat bit-for-bit for a given seed, because the simulation is
// deterministic.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  app,           // the benchmark: main loop, payload fill and verification
  sim,           // Engine::run_until minus every nested span
  rnic_rx,       // Rnic::on_packet, through a re-installed host demux
  core_tx,       // Channel::send_msg / call / reply
  core_poll,     // Context::polling minus the callbacks nested in it
  apps_erpc,     // ClientStub::call minus the nested core_tx
  erpc_respond,  // the server's Call::respond / respond_error, minus core_tx
  analysis,      // one scrape: ContextMetrics::registry + prometheus_render
  kCount
};
inline constexpr int kLayers = static_cast<int>(Layer::kCount);
/// Allocation bucket for allocations made while no span is open.
inline constexpr int kOutside = kLayers;

const char* layer_name(Layer l);

/// Running totals per layer. Differences of two copies give an interval.
struct LayerTotals {
  std::array<std::int64_t, kLayers> self_ns{};
  std::array<std::uint64_t, kLayers> spans{};
  std::array<std::uint64_t, kLayers + 1> allocs{};
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  void push(Layer l);
  void pop();

  /// Totals so far; allocation counts are read live from the hook.
  LayerTotals totals() const;

  /// Keep the next `cap` closed spans for the Chrome-trace export.
  void start_sampling(std::size_t cap);
  /// chrome://tracing JSON of the sampled spans, in the shape
  /// analysis::SpanCollector::chrome_trace_json emits.
  std::string chrome_trace_json(const std::string& label) const;

  void reset();

 private:
  struct Frame {
    Layer layer;
    std::int64_t t0;
    std::int64_t child;
  };
  struct Sample {
    Layer layer;
    std::uint8_t depth;
    std::int64_t t0;
    std::int64_t dur;
  };

  bool enabled_ = false;
  int depth_ = 0;
  std::array<Frame, 32> stack_{};
  LayerTotals totals_;
  std::vector<Sample> samples_;
  std::size_t sample_cap_ = 0;
};

extern Tracer g_tracer;
inline Tracer& tracer() { return g_tracer; }

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// RAII span; free when tracing is off (one branch).
class Span {
 public:
  explicit Span(Layer l) : on_(tracer().enabled()) {
    if (on_) tracer().push(l);
  }
  ~Span() {
    if (on_) tracer().pop();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

/// Thread CPU time of the calling thread, ns.
std::int64_t thread_cpu_ns();

}  // namespace perfbench
