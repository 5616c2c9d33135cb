#include "analysis/filter.hpp"

#include "core/channel.hpp"
#include "rnic/types.hpp"

namespace xrdma::analysis {

namespace {
constexpr const char* kFaultKindNames[kNumFaultKinds] = {
    "ingress_drop", "ingress_delay", "ingress_corrupt",
    "egress_drop",  "egress_delay",  "egress_corrupt",
    "qp_kill",      "cm_refuse",     "cm_timeout",
    "host_down",    "host_up",
};

bool is_ingress(FaultKind k) {
  return k == FaultKind::ingress_drop || k == FaultKind::ingress_delay ||
         k == FaultKind::ingress_corrupt;
}
bool is_egress(FaultKind k) {
  return k == FaultKind::egress_drop || k == FaultKind::egress_delay ||
         k == FaultKind::egress_corrupt;
}
}  // namespace

const char* to_string(FaultKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kNumFaultKinds ? kFaultKindNames[i] : "unknown";
}

std::optional<FaultKind> fault_kind_from_string(std::string_view name) {
  for (std::size_t i = 0; i < kNumFaultKinds; ++i) {
    if (name == kFaultKindNames[i]) return static_cast<FaultKind>(i);
  }
  return std::nullopt;
}

Filter::Filter(core::Context& ctx, std::uint64_t seed) : ctx_(ctx) {
  rng_.reseed(seed);
  ctx_.set_filter([this](core::Channel& ch, const core::WireHeader&) {
    return consult(/*egress=*/false, ch);
  });
  ctx_.set_egress_filter([this](core::Channel& ch, const core::WireHeader&) {
    return consult(/*egress=*/true, ch);
  });
  // The CM service is cluster-wide; gate on src so only this context's
  // connect attempts (including recovery resumes) are affected.
  ctx_.cm().set_fault_hook(
      [this](net::NodeId src, net::NodeId, std::uint16_t) -> std::optional<Errc> {
        if (src != ctx_.node()) return std::nullopt;
        for (auto& slot : rules_) {
          if (!slot.active) continue;
          if (slot.rule.kind == FaultKind::cm_refuse &&
              rule_fires(slot, 0)) {
            note(FaultKind::cm_refuse);
            return Errc::connection_refused;
          }
          if (slot.rule.kind == FaultKind::cm_timeout &&
              rule_fires(slot, 0)) {
            note(FaultKind::cm_timeout);
            return Errc::timed_out;
          }
        }
        return std::nullopt;
      });
}

Filter::~Filter() {
  ctx_.set_filter(nullptr);
  ctx_.set_egress_filter(nullptr);
  ctx_.cm().set_fault_hook(nullptr);
}

std::size_t Filter::add_rule(FaultRule rule) {
  rules_.push_back(Slot{rule, true});
  return rules_.size() - 1;
}

void Filter::remove_rule(std::size_t id) {
  if (id < rules_.size()) rules_[id].active = false;
}

void Filter::clear() {
  for (auto& slot : rules_) slot.active = false;
}

bool Filter::rule_fires(Slot& slot, std::uint64_t channel_id) {
  const FaultRule& r = slot.rule;
  if (r.channel_id != 0 && channel_id != 0 && r.channel_id != channel_id) {
    return false;
  }
  if (r.probability < 1.0 && !rng_.chance(r.probability)) return false;
  if (slot.rule.budget == 0) return false;
  if (slot.rule.budget > 0 && --slot.rule.budget == 0) slot.active = false;
  return true;
}

core::Context::FilterDecision Filter::consult(bool egress, core::Channel& ch) {
  core::Context::FilterDecision d;
  const Nanos now = ctx_.engine().now();
  Nanos& floor = (egress ? egress_floor_ : ingress_floor_)[ch.id()];
  for (auto& slot : rules_) {
    if (!slot.active) continue;
    const FaultKind k = slot.rule.kind;
    if (egress ? !is_egress(k) : !is_ingress(k)) continue;
    if (!rule_fires(slot, ch.id())) continue;
    note(k);
    switch (k) {
      case FaultKind::ingress_drop:
      case FaultKind::egress_drop:
        d.action = core::Context::FilterAction::drop;
        return d;
      case FaultKind::ingress_delay:
      case FaultKind::egress_delay: {
        const Nanos drawn =
            slot.rule.delay > 0
                ? static_cast<Nanos>(rng_.uniform(1, slot.rule.delay))
                : micros(50);
        // Raise the channel's release floor: everything behind this message
        // queues after it instead of overtaking it.
        floor = std::max(floor, now) + drawn;
        d.action = core::Context::FilterAction::delay;
        d.delay = floor - now;
        floor += 1;  // strictly later release for the next message
        return d;
      }
      case FaultKind::ingress_corrupt:
      case FaultKind::egress_corrupt:
        d.action = core::Context::FilterAction::corrupt;
        d.corrupt_seed = rng_.next_u64();
        return d;
      default:
        break;
    }
  }
  if (floor > now) {
    // An earlier message on this channel is still held back; keep the
    // stream ordered by delaying this one just past it.
    d.action = core::Context::FilterAction::delay;
    d.delay = floor - now;
    floor += 1;
    return d;
  }
  return d;
}

void Filter::kill_qp(core::Channel& ch) {
  const rnic::QpNum qpn = ch.qp_num();
  if (qpn == rnic::kInvalidId) return;
  rnic::QpAttr attr;
  attr.state = rnic::QpState::error;
  ctx_.nic().modify_qp(qpn, attr);
  note(FaultKind::qp_kill);
}

void Filter::kill_qp_after(std::uint64_t channel_id, Nanos delay) {
  auto timer = std::make_unique<sim::DeadlineTimer>(
      ctx_.engine(), [this, channel_id] {
        core::Channel* ch = ctx_.channel_by_id(channel_id);
        if (ch && ch->usable()) kill_qp(*ch);
      });
  timer->arm_after(delay);
  kill_timers_.push_back(std::move(timer));
}

}  // namespace xrdma::analysis
