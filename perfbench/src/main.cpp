// perfbench: the repository's two-clock benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--warmup-ops N] [--window-ops N] [--chunk-ops N]
//             [--corrupt-op K]
//
// --trace 0 prints the end-to-end metrics: host cost per op (thread CPU,
// 10th percentile over fixed-size chunks), set-up time (median of kSetups
// cold builds), peak RSS, and the sim-clock throughput, goodput and latency
// over a fixed window of ops. --trace 1 runs the workload twice with one
// seed, untraced then traced, and prints the per-layer metrics plus the
// tracing overhead; both runs must print the same sim_digest. The last
// stdout line is one JSON object; the exit code is 0 only when every op was
// delivered intact.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "sim/engine.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::int64_t warmup_ops = -1;
  std::int64_t window_ops = -1;
  std::int64_t chunk_ops = -1;
  std::int64_t corrupt_op = -1;
};

/// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetups = 11;
/// Largest gap, as a share of thread CPU, between the traced interval's
/// summed span self times (steady clock) and its thread CPU time before
/// the run warns that the machine descheduled it.
constexpr double kSelfSumTolerance = 0.05;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--warmup-ops N] [--window-ops N] "
               "[--chunk-ops N] [--corrupt-op K]\n");
  std::exit(2);
}

std::int64_t parse_int(const char* s, const char* flag) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0') usage((std::string("bad value for ") + flag).c_str());
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = static_cast<std::uint64_t>(parse_int(v, "--seed"));
    } else if (flag == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(parse_int(v, "--trace"));
      if (a.trace != 0 && a.trace != 1) usage("--trace takes 0 or 1");
    } else if (flag == "--warmup-ops") {
      a.warmup_ops = parse_int(v, "--warmup-ops");
    } else if (flag == "--window-ops") {
      a.window_ops = parse_int(v, "--window-ops");
    } else if (flag == "--chunk-ops") {
      a.chunk_ops = parse_int(v, "--chunk-ops");
    } else if (flag == "--corrupt-op") {
      a.corrupt_op = parse_int(v, "--corrupt-op");
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.warmup_ops == 0 || a.window_ops == 0 || a.chunk_ops == 0) {
    usage("op counts must be >= 1");
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The q-quantile of v, taking the lower sample; 0 for an empty v.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

/// The host clock's per-op cost: the 10th percentile over the run's chunks.
/// Other tenants' load only adds time, and it comes and goes within
/// seconds, so a low percentile tracks the undisturbed cost. On a shared
/// host it spread about half as much from run to run as the median did.
double host_ns_per_op(const RunResult& r) {
  return quantile(r.chunk_ns_per_op, 0.1);
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Host-clock calibration: CRC32C over the workload's own payload sizes,
/// ns per KiB (median of passes).
double crc32c_ns_per_kb(const std::vector<std::uint32_t>& sizes) {
  std::vector<std::uint8_t> buf(256u << 10);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + (i >> 9));
  }
  std::uint64_t bytes = 0;
  for (std::uint32_t n : sizes) bytes += std::min<std::size_t>(n, buf.size());
  if (bytes == 0) return 0;
  std::vector<double> passes;
  volatile std::uint32_t sink = 0;
  const std::int64_t start = thread_cpu_ns();
  while (passes.size() < 5 ||
         (thread_cpu_ns() - start < 300'000'000 && passes.size() < 200)) {
    const std::int64_t t0 = thread_cpu_ns();
    std::uint32_t acc = 0;
    for (std::uint32_t n : sizes) {
      acc ^= xrdma::crc32c(buf.data(), std::min<std::size_t>(n, buf.size()));
    }
    sink = sink ^ acc;
    passes.push_back(static_cast<double>(thread_cpu_ns() - t0) * 1024.0 /
                     static_cast<double>(bytes));
  }
  return median(passes);
}

/// Host-clock calibration: Engine::schedule_at + step of a no-op callback
/// with `depth` other events parked in the queue, ns per event.
double empty_event_ns(double depth) {
  xrdma::sim::Engine e;
  const auto parked = static_cast<std::int64_t>(std::llround(std::max(depth, 0.0)));
  for (std::int64_t i = 0; i < parked; ++i) {
    e.schedule_at(std::int64_t{1} << 60, [] {});
  }
  std::uint64_t fired = 0;
  std::vector<double> passes;
  constexpr int kPerPass = 100000;
  for (int pass = 0; pass < 7; ++pass) {
    const std::int64_t t0 = thread_cpu_ns();
    for (int i = 0; i < kPerPass; ++i) {
      e.schedule_at(e.now() + 1, [&fired] { ++fired; });
      e.step();
    }
    passes.push_back(static_cast<double>(thread_cpu_ns() - t0) / kPerPass);
  }
  if (fired != 7u * kPerPass) std::fprintf(stderr, "empty-event probe miscounted\n");
  return median(passes);
}

struct Done {
  SetupInfo setup;
  double setup_s = 0;  // thread CPU of setup()
  RunResult run;
};

/// One fresh workload instance: set up, then run.
Done setup_and_run(const Args& a, const RunParams& p) {
  Done d;
  auto w = make_workload(a.workload, a.seed);
  const std::int64_t t0 = thread_cpu_ns();
  d.setup = w->setup();
  d.setup_s = static_cast<double>(thread_cpu_ns() - t0) / 1e9;
  if (!d.setup.ok) {
    d.run.ok = false;
    d.run.error = "set-up failed: connections did not come up";
    return d;
  }
  d.run = w->run(p);
  return d;
}

/// Thread-CPU seconds of one set-up in a forked child, or -1 on failure.
/// Every child starts from the parent's state before its own set-up, so
/// each sample is as cold as the set-up that precedes the run: nothing is
/// reused from an earlier set-up's heap, and its page faults are paid.
double cold_setup_s(const Args& a) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    auto w = make_workload(a.workload, a.seed);
    const std::int64_t t0 = thread_cpu_ns();
    const bool ok = w->setup().ok;
    const double s = ok ? static_cast<double>(thread_cpu_ns() - t0) / 1e9 : -1;
    const bool sent = write(fds[1], &s, sizeof s) == sizeof s;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double s = -1;
  if (pid < 0 || read(fds[0], &s, sizeof s) != sizeof s) s = -1;
  close(fds[0]);
  int status = 0;
  if (pid > 0 && (waitpid(pid, &status, 0) != pid || status != 0)) s = -1;
  return s;
}

void print_digest(const char* label, const RunResult& r) {
  std::printf("%s sim_digest 0x%016llx over %llu ops\n", label,
              static_cast<unsigned long long>(r.digest),
              static_cast<unsigned long long>(r.window_ops));
}

std::vector<Metric> end_to_end(const RunResult& r, double setup_s) {
  return {
      {"host_ns_per_op", host_ns_per_op(r), "ns"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"sim_ops_per_s", r.sim_ops_per_s, "ops/s"},
      {"sim_goodput_gbps", r.sim_goodput_gbps, "Gb/s"},
      {"sim_p50_us", r.sim_p50_us, "us"},
      {"sim_p99_us", r.sim_p99_us, "us"},
  };
}

std::vector<Metric> per_layer(const Done& plain, const Done& traced) {
  const RunResult& r = traced.run;
  const Counters& w0 = r.w0;
  const Counters& w1 = r.w1;
  const auto ops = static_cast<double>(r.window_ops);
  const auto d = [](std::uint64_t x1, std::uint64_t x0) {
    return static_cast<double>(x1 - x0);
  };
  const auto li = [](Layer l) { return static_cast<std::size_t>(l); };
  // Host self time per op of a layer, over the traced measurement.
  const auto self_per_op = [&](Layer l) {
    return ratio(static_cast<double>(r.h1.self_ns[li(l)] - r.h0.self_ns[li(l)]),
                 static_cast<double>(r.host_ops));
  };
  const auto allocs = [&](Layer l) {
    return d(w1.allocs[li(l)], w0.allocs[li(l)]);
  };
  const auto spans = [&](Layer l) {
    return d(w1.spans[li(l)], w0.spans[li(l)]);
  };
  // Host time per span of a layer, over the traced measurement.
  const auto self_per_span = [&](Layer l) {
    return ratio(static_cast<double>(r.h1.self_ns[li(l)] - r.h0.self_ns[li(l)]),
                 static_cast<double>(r.h1.spans[li(l)] - r.h0.spans[li(l)]));
  };
  const double queue_depth =
      ratio(w1.queue_depth_sum - w0.queue_depth_sum, d(w1.queue_samples, w0.queue_samples));
  const double setup_ns_per_channel =
      (static_cast<double>(plain.setup.connect_cpu_ns) +
       static_cast<double>(traced.setup.connect_cpu_ns)) /
      2.0 / static_cast<double>(std::max<std::size_t>(traced.setup.connections, 1));

  return {
      {"sim.self_ns_per_op", self_per_op(Layer::sim), "ns"},
      {"sim.events_per_op", ratio(d(w1.events, w0.events), ops), "count"},
      {"sim.allocs_per_op", ratio(allocs(Layer::sim), ops), "count"},
      {"sim.queue_depth_mean", queue_depth, "count"},
      {"sim.empty_event_ns", empty_event_ns(queue_depth), "ns"},
      {"net.pkts_per_op", ratio(d(w1.net_pkts, w0.net_pkts), ops), "count"},
      {"net.max_queue_kb", static_cast<double>(w1.max_queue_bytes) / 1024.0, "KiB"},
      {"net.ecn_marks", d(w1.ecn_marks, w0.ecn_marks), "count"},
      {"net.pause_frames", d(w1.pause_frames, w0.pause_frames), "count"},
      {"net.drops", d(w1.drops, w0.drops), "count"},
      {"rnic.rx_ns_per_pkt", self_per_span(Layer::rnic_rx), "ns"},
      {"rnic.rx_allocs_per_pkt", ratio(allocs(Layer::rnic_rx), spans(Layer::rnic_rx)), "count"},
      {"rnic.doorbells_per_op", ratio(d(w1.doorbells, w0.doorbells), ops), "count"},
      {"rnic.wrs_per_doorbell",
       ratio(d(w1.wrs_posted, w0.wrs_posted), d(w1.doorbells, w0.doorbells)), "count"},
      {"rnic.inline_share",
       ratio(d(w1.inline_wrs, w0.inline_wrs), d(w1.wrs_posted, w0.wrs_posted)), "ratio"},
      {"rnic.qp_cache_hit_ratio",
       ratio(d(w1.qp_cache_hits, w0.qp_cache_hits),
             d(w1.qp_cache_hits, w0.qp_cache_hits) +
                 d(w1.qp_cache_misses, w0.qp_cache_misses)),
       "ratio"},
      {"rnic.retransmits", d(w1.retransmits, w0.retransmits), "count"},
      {"rnic.rnr_naks", d(w1.rnr_naks, w0.rnr_naks), "count"},
      {"verbs.setup_ns_per_channel", setup_ns_per_channel, "ns"},
      {"verbs.connect_sim_us", traced.setup.connect_sim_us, "us"},
      {"core.tx_ns_per_op", self_per_op(Layer::core_tx), "ns"},
      {"core.tx_allocs_per_op", ratio(allocs(Layer::core_tx), ops), "count"},
      {"core.poll_self_ns_per_op", self_per_op(Layer::core_poll), "ns"},
      {"core.poll_allocs_per_op", ratio(allocs(Layer::core_poll), ops), "count"},
      {"core.polls_per_op", ratio(d(w1.polls, w0.polls), ops), "count"},
      {"core.empty_poll_ratio",
       ratio(d(w1.empty_polls, w0.empty_polls), d(w1.polls, w0.polls)), "ratio"},
      {"core.acks_per_op", ratio(d(w1.acks_tx, w0.acks_tx), ops), "count"},
      {"core.copies_avoided_ratio",
       ratio(d(w1.copies_avoided, w0.copies_avoided), d(w1.msgs_tx, w0.msgs_tx)), "ratio"},
      {"core.reads_per_op", ratio(d(w1.reads, w0.reads), ops), "count"},
      {"core.window_stalls_per_op", ratio(d(w1.window_stalls, w0.window_stalls), ops), "count"},
      {"core.crc_frames_per_op", ratio(d(w1.crc_frames, w0.crc_frames), ops), "count"},
      {"core.mem_alloc_calls_per_op",
       ratio(d(w1.mem_alloc_calls, w0.mem_alloc_calls), ops), "count"},
      {"core.mem_occupied_mb",
       static_cast<double>(w1.mem_occupied_bytes) / (1024.0 * 1024.0), "MiB"},
      {"common.crc32c_ns_per_kb", crc32c_ns_per_kb(r.payload_sizes), "ns/KiB"},
      {"apps.erpc_call_ns", self_per_op(Layer::apps_erpc), "ns"},
      {"apps.erpc_respond_ns", self_per_op(Layer::erpc_respond), "ns"},
      {"apps.erpc_retries", d(w1.erpc_retries, w0.erpc_retries), "count"},
      {"apps.erpc_shed", d(w1.erpc_shed, w0.erpc_shed), "count"},
      {"analysis.scrape_us", self_per_span(Layer::analysis) / 1e3, "us"},
      {"analysis.scrape_allocs", ratio(allocs(Layer::analysis), spans(Layer::analysis)), "count"},
      {"analysis.series_count", static_cast<double>(w1.series), "count"},
      {"analysis.recorder_records_per_op",
       ratio(d(w1.recorder_records, w0.recorder_records), ops), "count"},
      {"app.ns_per_op", self_per_op(Layer::app), "ns"},
      {"trace.overhead_frac",
       ratio(host_ns_per_op(r), host_ns_per_op(plain.run)) - 1.0, "ratio"},
  };
}

/// Where each traced host nanosecond went, and the self-time sum check:
/// span times are steady-clock, so time the thread spent descheduled
/// shows as a sum above thread CPU.
void print_layer_table(const RunResult& r) {
  double total = 0;
  for (int l = 0; l < kLayers; ++l) {
    total += static_cast<double>(r.h1.self_ns[l] - r.h0.self_ns[l]);
  }
  const auto ops = static_cast<double>(r.host_ops);
  std::printf("layer self time, traced run (%llu ops):\n",
              static_cast<unsigned long long>(r.host_ops));
  for (int l = 0; l < kLayers; ++l) {
    const auto self = static_cast<double>(r.h1.self_ns[l] - r.h0.self_ns[l]);
    std::printf("  %-18s %12.1f ns/op  %5.1f%%\n",
                layer_name(static_cast<Layer>(l)), ratio(self, ops),
                100.0 * ratio(self, total));
  }
  std::printf("  %-18s %12.1f ns/op  (steady clock, sum of self times)\n",
              "total", ratio(total, ops));
  std::printf("  %-18s %12.1f ns/op  (thread CPU over the same interval)\n",
              "host", ratio(static_cast<double>(r.host_cpu_ns), ops));
  const double gap = ratio(total, static_cast<double>(r.host_cpu_ns)) - 1.0;
  std::printf("self-time sum vs thread CPU: %+.2f%% (tolerance %.0f%%)\n",
              100.0 * gap, 100.0 * kSelfSumTolerance);
  if (std::fabs(gap) > kSelfSumTolerance) {
    std::printf("WARNING: per-layer self times do not add up to thread CPU; "
                "the host was busy, so read them with care\n");
  }
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run_main(const Args& a) {
  auto probe = make_workload(a.workload, a.seed);
  if (!probe) {
    std::string names;
    for (const auto& n : workload_names()) names += " " + n;
    usage(("unknown workload; choose one of:" + names).c_str());
  }
  RunParams p = probe->defaults();
  probe.reset();
  if (a.warmup_ops > 0) p.warmup_ops = static_cast<std::uint64_t>(a.warmup_ops);
  if (a.window_ops > 0) p.window_ops = static_cast<std::uint64_t>(a.window_ops);
  if (a.chunk_ops > 0) p.chunk_ops = static_cast<std::uint64_t>(a.chunk_ops);
  p.corrupt_op = a.corrupt_op;

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace);

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::string error;

  if (a.trace == 0) {
    // Set-up time: the median of kSetups cold builds, kSetups - 1 in
    // forked children and the last in this process, which then runs.
    std::vector<double> setup_s;
    for (int i = 1; i < kSetups; ++i) {
      const double s = cold_setup_s(a);
      if (s < 0) {
        std::printf("FAILED: set-up in a child process failed\n");
        print_json(false, 1, 1, {});
        return 1;
      }
      setup_s.push_back(s);
    }
    p.seconds = a.seconds;
    const Done done = setup_and_run(a, p);
    setup_s.push_back(done.setup_s);
    const RunResult& r = done.run;
    attempted = r.attempted;
    failed = r.failed;
    correct = r.ok;
    error = r.error;
    print_digest("run", r);
    metrics = end_to_end(r, median(setup_s));
    std::printf("set-up, ms of thread CPU per cold build:");
    for (double s : setup_s) std::printf(" %.3f", s * 1e3);
    std::printf("\n");
    std::printf("host clock: %zu chunks of %llu ops; sim clock: %llu-op window\n",
                r.chunk_ns_per_op.size(),
                static_cast<unsigned long long>(p.chunk_ops),
                static_cast<unsigned long long>(r.window_ops));
  } else {
    p.seconds = a.seconds / 2;
    const Done plain = setup_and_run(a, p);
    RunParams tp = p;
    tp.traced = true;
    tp.trace_samples = 20000;
    const Done traced = setup_and_run(a, tp);
    attempted = plain.run.attempted + traced.run.attempted;
    failed = plain.run.failed + traced.run.failed;
    correct = plain.run.ok && traced.run.ok;
    error = !plain.run.error.empty() ? plain.run.error : traced.run.error;
    print_digest("untraced", plain.run);
    print_digest("traced", traced.run);
    if (correct && plain.run.digest != traced.run.digest) {
      correct = false;
      error = "traced and untraced runs of one seed diverged";
    }
    if (correct) {
      print_layer_table(traced.run);
      metrics = per_layer(plain, traced);
      const std::string dir = ".bench_build/traces";
      const std::string path =
          dir + "/" + a.workload + "-" + std::to_string(a.seed) + ".json";
      std::filesystem::create_directories(dir);
      std::ofstream(path) << tracer().chrome_trace_json(a.workload);
      std::printf("chrome trace of the first sampled spans: %s\n", path.c_str());
    }
  }

  for (const Metric& m : metrics) {
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("failed_frac %.6g (%llu of %llu ops)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (!correct) std::printf("FAILED: %s\n", error.c_str());
  print_json(correct, std::max<std::uint64_t>(attempted, 1), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run_main(perfbench::parse(argc, argv));
}
