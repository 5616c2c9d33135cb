#include "tracer.hpp"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <new>

#include "core/channel.hpp"

namespace perfbench {

Tracer g_tracer;

namespace {
// Allocation hook state: the bucket new allocations are charged to (the
// innermost open span's layer, or kOutside) and the running counts.
int g_alloc_bucket = kOutside;
std::array<std::uint64_t, kLayers + 1> g_allocs{};
}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::app: return "app";
    case Layer::sim: return "sim";
    case Layer::rnic_rx: return "rnic.rx";
    case Layer::core_tx: return "core.tx";
    case Layer::core_poll: return "core.poll";
    case Layer::apps_erpc: return "apps.erpc";
    case Layer::erpc_respond: return "apps.erpc.respond";
    case Layer::analysis: return "analysis.scrape";
    case Layer::kCount: break;
  }
  return "?";
}

void Tracer::push(Layer l) {
  if (depth_ == static_cast<int>(stack_.size())) {
    std::fprintf(stderr, "perfbench: span stack overflow\n");
    std::abort();
  }
  stack_[depth_++] = Frame{l, now_ns(), 0};
  g_alloc_bucket = static_cast<int>(l);
}

void Tracer::pop() {
  const std::int64_t t1 = now_ns();
  const Frame f = stack_[--depth_];
  const std::int64_t dur = t1 - f.t0;
  const int li = static_cast<int>(f.layer);
  totals_.self_ns[li] += dur - f.child;
  ++totals_.spans[li];
  if (depth_ > 0) {
    stack_[depth_ - 1].child += dur;
    g_alloc_bucket = static_cast<int>(stack_[depth_ - 1].layer);
  } else {
    g_alloc_bucket = kOutside;
  }
  // The sample buffer is reserved up front, so this never allocates.
  if (samples_.size() < sample_cap_) {
    samples_.push_back({f.layer, static_cast<std::uint8_t>(depth_), f.t0, dur});
  }
}

LayerTotals Tracer::totals() const {
  LayerTotals t = totals_;
  t.allocs = g_allocs;
  return t;
}

void Tracer::start_sampling(std::size_t cap) {
  samples_.clear();
  samples_.reserve(cap);
  sample_cap_ = cap;
}

std::string Tracer::chrome_trace_json(const std::string& label) const {
  std::int64_t base = 0;
  for (const Sample& s : samples_) {
    if (base == 0 || s.t0 < base) base = s.t0;
  }
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const Sample& s : samples_) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":0,"
                  "\"args\":{\"run\":\"%s\",\"depth\":%u}}",
                  first ? "" : ",", layer_name(s.layer),
                  static_cast<double>(s.t0 - base) / 1e3,
                  static_cast<double>(s.dur) / 1e3, label.c_str(),
                  static_cast<unsigned>(s.depth));
    out += buf;
    first = false;
  }
  out += "]}\n";
  return out;
}

void Tracer::reset() {
  enabled_ = false;
  depth_ = 0;
  totals_ = {};
  samples_.clear();
  sample_cap_ = 0;
  g_alloc_bucket = kOutside;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace perfbench

// ---------------------------------------------------------------------------
// Heap-allocation counter: the benchmark binary's global operator new.

namespace {

void* counted_alloc(std::size_t n) {
  ++perfbench::g_allocs[static_cast<std::size_t>(perfbench::g_alloc_bucket)];
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++perfbench::g_allocs[static_cast<std::size_t>(perfbench::g_alloc_bucket)];
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t size = ((n == 0 ? 1 : n) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

// ---------------------------------------------------------------------------
// Link-time wrappers (-Wl,--wrap, see CMakeLists.txt). A member function
// taking (this, args...) has the same Itanium C++ ABI as a free function
// taking (Channel*, args...): class-type arguments travel by invisible
// reference and the caller destroys them, on both sides of the wrapper.

namespace {
using xrdma::Buffer;
using xrdma::Errc;
using xrdma::Nanos;
using xrdma::core::Channel;
}  // namespace

Errc real_channel_call(Channel* self, Buffer request, Channel::RpcCallback cb,
                       Nanos timeout)
    __asm__("__real__ZN5xrdma4core7Channel4callENS_6BufferESt8functionIFvNS_6ResultINS0_3MsgEEEEEl");
Errc wrap_channel_call(Channel* self, Buffer request, Channel::RpcCallback cb,
                       Nanos timeout)
    __asm__("__wrap__ZN5xrdma4core7Channel4callENS_6BufferESt8functionIFvNS_6ResultINS0_3MsgEEEEEl");
Errc real_channel_reply(Channel* self, std::uint64_t rpc_id, Buffer response,
                        std::uint64_t parent_trace_id)
    __asm__("__real__ZN5xrdma4core7Channel5replyEmNS_6BufferEm");
Errc wrap_channel_reply(Channel* self, std::uint64_t rpc_id, Buffer response,
                        std::uint64_t parent_trace_id)
    __asm__("__wrap__ZN5xrdma4core7Channel5replyEmNS_6BufferEm");

Errc wrap_channel_call(Channel* self, Buffer request, Channel::RpcCallback cb,
                       Nanos timeout) {
  perfbench::Span span(perfbench::Layer::core_tx);
  return real_channel_call(self, std::move(request), std::move(cb), timeout);
}

Errc wrap_channel_reply(Channel* self, std::uint64_t rpc_id, Buffer response,
                        std::uint64_t parent_trace_id) {
  perfbench::Span span(perfbench::Layer::core_tx);
  return real_channel_reply(self, rpc_id, std::move(response),
                            parent_trace_id);
}
