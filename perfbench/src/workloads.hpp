// The benchmark's three closed-loop workloads over the public xrdma API.
//
//   eager_flood  2 hosts, one channel, 64 one-way messages outstanding,
//                1..512 B (75% <= 256 B: inline and staged-eager paths)
//   bulk_pull    2 hosts, one channel, 16 one-way rendezvous messages
//                outstanding, log-uniform 4 KiB+1 .. 256 KiB (RDMA Read)
//   rpc_fanin    9-host rack, 8 eRPC clients x 4 calls outstanding against
//                one server; 10% of responses 16..64 KiB (Read-replace-
//                Write); every context scraped each simulated millisecond
//
// Every workload is single-threaded and deterministic: a seed fixes the
// fabric seed, the context trace epochs and every payload, so two runs of
// one seed deliver the same bytes at the same simulated instants.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

/// Deterministic counters read at an exact op count (inside the completion
/// callback), so their differences over the sim window repeat bit-for-bit.
struct Counters {
  std::int64_t sim_ns = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t events = 0;
  double queue_depth_sum = 0;
  std::uint64_t queue_samples = 0;
  std::array<std::uint64_t, kLayers> spans{};
  std::array<std::uint64_t, kLayers + 1> allocs{};
  // net
  std::uint64_t net_pkts = 0;
  std::uint64_t ecn_marks = 0;
  std::uint64_t pause_frames = 0;
  std::uint64_t drops = 0;
  std::uint64_t max_queue_bytes = 0;  // high-water, sink host's ingress
  // rnic
  std::uint64_t doorbells = 0;
  std::uint64_t wrs_posted = 0;
  std::uint64_t inline_wrs = 0;
  std::uint64_t qp_cache_hits = 0;
  std::uint64_t qp_cache_misses = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rnr_naks = 0;
  // core
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  std::uint64_t msgs_tx = 0;
  std::uint64_t acks_tx = 0;
  std::uint64_t copies_avoided = 0;
  std::uint64_t reads = 0;
  std::uint64_t window_stalls = 0;
  std::uint64_t crc_frames = 0;
  std::uint64_t mem_alloc_calls = 0;
  std::uint64_t mem_occupied_bytes = 0;
  // apps / analysis
  std::uint64_t erpc_retries = 0;
  std::uint64_t erpc_shed = 0;
  std::uint64_t series = 0;
  std::uint64_t recorder_records = 0;
};

struct RunResult {
  bool ok = true;
  std::string error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Sim clock, over the fixed op window.
  std::uint64_t window_ops = 0;
  double sim_ops_per_s = 0;
  double sim_goodput_gbps = 0;
  double sim_p50_us = 0;
  double sim_p99_us = 0;
  std::uint64_t digest = 0;
  Counters w0, w1;

  // Host clock, from the first loop boundary after warm-up to the last
  // chunk boundary.
  std::vector<double> chunk_ns_per_op;  // thread CPU, one per chunk
  std::uint64_t host_ops = 0;
  std::int64_t host_cpu_ns = 0;
  LayerTotals h0, h1;  // span totals over the same interval (traced runs)
  std::vector<std::uint32_t> payload_sizes;  // sizes of the first ops
};

struct SetupInfo {
  bool ok = false;
  std::int64_t connect_cpu_ns = 0;  // host: connect() until all usable
  double connect_sim_us = 0;        // sim: connect() to last connector up
  std::size_t connections = 0;
};

struct RunParams {
  std::uint64_t warmup_ops = 0;
  std::uint64_t window_ops = 0;
  std::uint64_t chunk_ops = 0;
  double seconds = 1;
  bool traced = false;
  std::int64_t corrupt_op = -1;  // flip one delivered byte of this op
  std::size_t trace_samples = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Cluster, contexts and connections up.
  virtual SetupInfo setup() = 0;
  virtual RunResult run(const RunParams& p) = 0;
  /// Default warm-up / window / chunk sizes for this workload.
  virtual RunParams defaults() const = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
const std::vector<std::string>& workload_names();

}  // namespace perfbench
