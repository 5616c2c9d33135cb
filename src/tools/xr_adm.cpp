#include "tools/xr_adm.hpp"

#include "analysis/recorder.hpp"
#include "common/logging.hpp"

namespace xrdma::tools {

void XrAdm::set_all(const std::string& name, std::int64_t value,
                    std::function<void(AdmResult)> done) {
  engine_.schedule_after(delay_, [this, name, value, done = std::move(done)] {
    AdmResult result;
    for (core::Context* ctx : fleet_) {
      if (ctx->set_flag(name, value) == Errc::ok) {
        ++result.applied;
      } else {
        ++result.rejected;
      }
    }
    if (done) done(result);
  });
}

void XrAdm::dump_all(const std::string& prefix,
                     std::function<void(std::vector<std::string>)> done) {
  engine_.schedule_after(delay_, [this, prefix, done = std::move(done)] {
    std::vector<std::string> paths;
    for (core::Context* ctx : fleet_) {
      // Mark the trigger in the ring first so the dump's own cause is the
      // last record a triage timeline shows.
      ctx->trigger_dump(analysis::TrigReason::manual);
      const analysis::Dump dump = analysis::snapshot_dump(*ctx, "manual");
      const std::string path =
          strfmt("%s.node%u.xrd", prefix.c_str(), ctx->node());
      if (analysis::write_xrd_file(path, dump)) paths.push_back(path);
    }
    if (done) done(std::move(paths));
  });
}

std::map<net::NodeId, std::int64_t> XrAdm::collect(
    const std::string& name) const {
  std::map<net::NodeId, std::int64_t> out;
  for (core::Context* ctx : fleet_) {
    auto v = ctx->get_flag(name);
    if (v.ok()) out[ctx->node()] = v.value();
  }
  return out;
}

}  // namespace xrdma::tools
