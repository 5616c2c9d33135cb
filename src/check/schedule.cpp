#include "check/schedule.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <variant>

#include "common/field_range.hpp"
#include "common/rng.hpp"

namespace xrdma::check {

namespace {

constexpr const char* kOpNames[] = {"open", "close", "send", "call"};

std::optional<OpKind> op_kind_from_string(std::string_view name) {
  for (std::size_t i = 0; i < 4; ++i) {
    if (name == kOpNames[i]) return static_cast<OpKind>(i);
  }
  return std::nullopt;
}

// The replay `params` keys in serialization order, each naming the
// ScheduleParams field it carries. The printer and the parser both loop over
// this table; a key missing from a file keeps the field's default, which is
// how files written before the post-v1 keys (txcap onwards) still load.
struct ParamKey {
  const char* key;
  std::variant<std::uint32_t ScheduleParams::*, Nanos ScheduleParams::*,
               bool ScheduleParams::*>
      field;
};

constexpr ParamKey kParamKeys[] = {
    {"hosts", &ScheduleParams::num_hosts},
    {"slots", &ScheduleParams::slots_per_pair},
    {"numops", &ScheduleParams::num_ops},
    {"numfaults", &ScheduleParams::num_faults},
    {"horizon", &ScheduleParams::horizon},
    {"corrupt", &ScheduleParams::with_corruption},
    {"window", &ScheduleParams::window_depth},
    {"wrs", &ScheduleParams::max_outstanding_wrs},
    {"mask", &ScheduleParams::trace_sample_mask},
    {"frag", &ScheduleParams::frag_size},
    {"txcap", &ScheduleParams::tx_queue_cap},
    {"incast", &ScheduleParams::incast},
    {"membudget", &ScheduleParams::mem_budget_mb},
    {"flap", &ScheduleParams::flap_cycles},
    {"brownout", &ScheduleParams::brownout_delay_us},
    {"adaptive", &ScheduleParams::health_adaptive},
    {"drain", &ScheduleParams::drain_cycles},
    {"mixedver", &ScheduleParams::mixed_versions},
    {"batching", &ScheduleParams::batch_shape},
    {"crcshape", &ScheduleParams::corruption_shape},
};

// Parses one `params` value into its field; false when the key is unknown
// or the value does not fit the field (see fits_field).
bool set_param(ScheduleParams& p, const std::string& key, std::int64_t value) {
  for (const ParamKey& k : kParamKeys) {
    if (key != k.key) continue;
    return std::visit(
        [&](auto field) {
          using T = std::remove_reference_t<decltype(p.*field)>;
          if (!fits_field<T>(value)) return false;
          p.*field = static_cast<T>(value);
          return true;
        },
        k.field);
  }
  return false;
}

// Reads one node/slot index of an op or fault line.
bool read_index(std::istream& in, std::uint8_t& out) {
  std::int64_t v = 0;
  if (!(in >> v) || !fits_field<std::uint8_t>(v)) return false;
  out = static_cast<std::uint8_t>(v);
  return true;
}

struct SlotKey {
  std::uint8_t src, dst, slot;
  bool operator<(const SlotKey& o) const {
    return std::tie(src, dst, slot) < std::tie(o.src, o.dst, o.slot);
  }
};

/// Payload sizes that straddle every interesting protocol edge: the empty
/// and 1-byte messages, the 4 KB eager cutoff, the fragment boundary of the
/// run's frag_size, and the 64 KB boundary the default production config
/// fragments at.
std::vector<std::uint32_t> size_buckets(const ScheduleParams& p) {
  const std::uint32_t fb = p.frag_size;
  return {0,      1,          3,      64,         1024,   4095,
          4096,   4097,       8192,   fb - 1,     fb,     fb + 1,
          65535,  65536,      65537,  3 * fb + 7, 100000, 4 * fb + 1};
}

}  // namespace

const char* to_string(OpKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < 4 ? kOpNames[i] : "unknown";
}

Schedule generate_schedule(std::uint64_t seed, ScheduleParams params) {
  if (params.num_hosts < 2) params.num_hosts = 2;
  Schedule s;
  s.seed = seed;
  s.params = params;
  Rng rng(seed ^ 0xc0ffee5eedULL);

  // Draw all op times first so ops can be assigned kinds in time order
  // (slot-open tracking needs chronology).
  std::vector<Nanos> times(params.num_ops);
  for (auto& t : times) {
    t = static_cast<Nanos>(rng.next_below(
        static_cast<std::uint64_t>(params.horizon)));
  }
  std::sort(times.begin(), times.end());

  const std::vector<std::uint32_t> sizes = size_buckets(params);
  std::map<SlotKey, bool> open;
  std::vector<SlotKey> ever_opened;
  for (std::uint32_t i = 0; i < params.num_ops; ++i) {
    Op op;
    op.at = times[i];
    if (params.incast) {
      // N→1 storm: every flow converges on node 0.
      op.src = static_cast<std::uint8_t>(
          1 + rng.next_below(params.num_hosts - 1));
      op.dst = 0;
    } else {
      op.src = static_cast<std::uint8_t>(rng.next_below(params.num_hosts));
      op.dst = static_cast<std::uint8_t>(
          (op.src + 1 + rng.next_below(params.num_hosts - 1)) %
          params.num_hosts);
    }
    op.slot = static_cast<std::uint8_t>(rng.next_below(params.slots_per_pair));
    const SlotKey key{op.src, op.dst, op.slot};

    if (!open[key]) {
      op.kind = OpKind::open;
      open[key] = true;
      ever_opened.push_back(key);
    } else {
      const std::uint64_t r = rng.next_below(100);
      if (r < 7) {
        op.kind = OpKind::close;
        open[key] = false;
      } else if (r < 27) {
        op.kind = OpKind::call;
      } else {
        op.kind = OpKind::send;
      }
    }
    if (op.kind == OpKind::send || op.kind == OpKind::call) {
      if (params.batch_shape > 0 && rng.next_below(100) < 80) {
        // Batching shape: bias toward inline-eligible eager sizes
        // (straddling the default inline_max = 256) so multi-WR chains
        // actually form and the inline path carries real traffic.
        static const std::uint32_t kSmall[] = {0,   1,   63,  64, 65,
                                               128, 255, 256, 257};
        op.size = kSmall[rng.next_below(9)];
      } else {
        op.size = sizes[rng.next_below(sizes.size())];
      }
      op.tag = rng.next_u64() | 1;
    }
    s.ops.push_back(op);
  }

  for (std::uint32_t i = 0; i < params.num_faults; ++i) {
    FaultOp f;
    // Leave the first stretch of the horizon fault-free so the earliest
    // opens establish before the chaos starts.
    f.at = params.horizon / 8 +
           static_cast<Nanos>(rng.next_below(
               static_cast<std::uint64_t>(params.horizon * 7 / 8)));
    f.node = static_cast<std::uint8_t>(rng.next_below(params.num_hosts));
    std::uint64_t r = rng.next_below(100);
    using analysis::FaultKind;
    // corruption_shape boosts the corrupt share (the run exists to exercise
    // the integrity plane); with_corruption keeps the legacy 12% mix.
    const std::uint64_t corrupt_share =
        params.corruption_shape > 0 ? 30 : (params.with_corruption ? 12 : 0);
    if (r < corrupt_share) {
      f.kind = 3 * r < 2 * corrupt_share ? FaultKind::ingress_corrupt
                                         : FaultKind::egress_corrupt;
    } else if (r < 24) {
      f.kind = FaultKind::ingress_drop;
    } else if (r < 42) {
      f.kind = FaultKind::ingress_delay;
    } else if (r < 58) {
      f.kind = FaultKind::egress_drop;
    } else if (r < 70) {
      f.kind = FaultKind::egress_delay;
    } else if (r < 88) {
      f.kind = FaultKind::qp_kill;
    } else if (r < 94) {
      f.kind = FaultKind::cm_refuse;
    } else {
      f.kind = FaultKind::cm_timeout;
    }
    if (f.kind == FaultKind::qp_kill) {
      if (ever_opened.empty()) {
        f.kind = FaultKind::ingress_drop;
      } else {
        const SlotKey key = ever_opened[rng.next_below(ever_opened.size())];
        f.src = key.src;
        f.dst = key.dst;
        f.slot = key.slot;
        f.node = key.src;  // the kill is injected at the dialing side
      }
    }
    if (f.kind == FaultKind::ingress_delay ||
        f.kind == FaultKind::egress_delay) {
      f.delay = micros(rng.uniform(20, 300));
    }
    s.faults.push_back(f);
  }
  if (params.flap_cycles > 0) {
    // Flap shape: one victim host toggles down/up at a 50% duty cycle
    // across the back stretch of the horizon. Down and up always come in
    // pairs so quiesce starts from a fully-alive cluster.
    const auto victim =
        static_cast<std::uint8_t>(rng.next_below(params.num_hosts));
    const Nanos start = params.horizon / 4;
    const Nanos span = params.horizon * 5 / 8;
    const Nanos segment = span / params.flap_cycles;
    for (std::uint32_t i = 0; i < params.flap_cycles; ++i) {
      FaultOp down;
      down.at = start + static_cast<Nanos>(i) * segment;
      down.kind = analysis::FaultKind::host_down;
      down.node = victim;
      s.faults.push_back(down);
      FaultOp up = down;
      up.at = down.at + segment / 2;
      up.kind = analysis::FaultKind::host_up;
      s.faults.push_back(up);
    }
  }
  if (params.batch_shape > 0) {
    // Mid-chain kills: a qp_kill ~300 ns after a send lands inside the
    // send-path delay / accumulator window, so whole chains die between
    // accumulation and doorbell — the conservation oracle (14) must still
    // balance every WR as posted, deferred or dropped.
    std::uint32_t added = 0;
    for (const Op& op : s.ops) {
      if (op.kind != OpKind::send) continue;
      if (rng.next_below(100) >= 10) continue;
      FaultOp f;
      f.at = op.at + 300;
      f.kind = analysis::FaultKind::qp_kill;
      f.src = op.src;
      f.dst = op.dst;
      f.slot = op.slot;
      f.node = op.src;
      s.faults.push_back(f);
      if (++added >= 6) break;  // a handful keeps quiesce tractable
    }
  }
  std::stable_sort(s.faults.begin(), s.faults.end(),
                   [](const FaultOp& a, const FaultOp& b) {
                     return a.at < b.at;
                   });
  return s;
}

std::string serialize_schedule(const Schedule& s) {
  std::ostringstream out;
  out << "xcheck v1\n";
  out << "seed " << s.seed << "\n";
  out << "params";
  for (const ParamKey& k : kParamKeys) {
    out << ' ' << k.key << ' ';
    // A bool prints as 0 / 1.
    std::visit([&](auto field) { out << s.params.*field; }, k.field);
  }
  out << "\n";
  for (const Op& op : s.ops) {
    out << "op " << op.at << " " << to_string(op.kind) << " "
        << unsigned{op.src} << " " << unsigned{op.dst} << " "
        << unsigned{op.slot} << " " << op.size << " " << op.tag << "\n";
  }
  for (const FaultOp& f : s.faults) {
    out << "fault " << f.at << " " << analysis::to_string(f.kind) << " "
        << unsigned{f.node} << " " << unsigned{f.src} << " "
        << unsigned{f.dst} << " " << unsigned{f.slot} << " " << f.delay
        << "\n";
  }
  out << "end\n";
  return out.str();
}

bool deserialize_schedule(const std::string& text, Schedule& out) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "xcheck v1") return false;
  Schedule s;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    if (word == "seed") {
      ls >> s.seed;
    } else if (word == "params") {
      std::string key;
      while (ls >> key) {
        std::int64_t value = 0;
        if (!(ls >> value) || !set_param(s.params, key, value)) return false;
      }
    } else if (word == "op") {
      Op op;
      std::string kind;
      ls >> op.at >> kind;
      if (!read_index(ls, op.src) || !read_index(ls, op.dst) ||
          !read_index(ls, op.slot) || !(ls >> op.size >> op.tag)) {
        return false;
      }
      const auto k = op_kind_from_string(kind);
      if (!k) return false;
      op.kind = *k;
      s.ops.push_back(op);
    } else if (word == "fault") {
      FaultOp f;
      std::string kind;
      ls >> f.at >> kind;
      if (!read_index(ls, f.node) || !read_index(ls, f.src) ||
          !read_index(ls, f.dst) || !read_index(ls, f.slot) ||
          !(ls >> f.delay)) {
        return false;
      }
      const auto k = analysis::fault_kind_from_string(kind);
      if (!k) return false;
      f.kind = *k;
      s.faults.push_back(f);
    } else if (word == "end") {
      saw_end = true;
      break;
    } else {
      return false;
    }
  }
  if (!saw_end) return false;
  // An op naming a host the cluster does not have would index past the
  // runner's contexts. (Faults are bounds-checked where they are injected.)
  for (const Op& op : s.ops) {
    if (op.src >= s.params.num_hosts || op.dst >= s.params.num_hosts) {
      return false;
    }
  }
  out = std::move(s);
  return true;
}

bool save_schedule(const Schedule& s, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << serialize_schedule(s);
  return static_cast<bool>(out);
}

bool load_schedule(const std::string& path, Schedule& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  return deserialize_schedule(text.str(), out);
}

Schedule without_items(const Schedule& s,
                       const std::vector<std::size_t>& drop) {
  std::vector<bool> dead(s.items(), false);
  for (std::size_t i : drop) {
    if (i < dead.size()) dead[i] = true;
  }
  Schedule out;
  out.seed = s.seed;
  out.params = s.params;
  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    if (!dead[i]) out.ops.push_back(s.ops[i]);
  }
  for (std::size_t i = 0; i < s.faults.size(); ++i) {
    if (!dead[s.ops.size() + i]) out.faults.push_back(s.faults[i]);
  }
  return out;
}

}  // namespace xrdma::check
