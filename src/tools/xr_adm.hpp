// XR-adm (§VI-D): online configuration distribution.
//
// In production, each X-RDMA application runs an idle admin thread; XR-adm
// pushes "online" parameter changes to those threads across the fleet. The
// simulation equivalent targets a set of contexts directly (the admin
// control path is out-of-band and adds a small propagation delay).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/context.hpp"

namespace xrdma::tools {

struct AdmResult {
  int applied = 0;
  int rejected = 0;  // offline/unknown parameters
};

class XrAdm {
 public:
  explicit XrAdm(sim::Engine& engine, Nanos propagation_delay = micros(200))
      : engine_(engine), delay_(propagation_delay) {}

  void manage(core::Context& ctx) { fleet_.push_back(&ctx); }

  /// Push one online flag to the whole fleet; `done` reports the outcome
  /// after the (modelled) propagation delay.
  void set_all(const std::string& name, std::int64_t value,
               std::function<void(AdmResult)> done = nullptr);

  /// Read a flag from every managed context (node -> value; missing on
  /// rejection).
  std::map<net::NodeId, std::int64_t> collect(const std::string& name) const;

  /// `xr_adm dump`: after the propagation delay, mark a manual trigger in
  /// every managed context's flight recorder and write its ring to
  /// `<prefix>.node<N>.xrd`. `done` receives the paths written (a path is
  /// omitted when the file could not be created).
  void dump_all(const std::string& prefix,
                std::function<void(std::vector<std::string>)> done = nullptr);

 private:
  sim::Engine& engine_;
  Nanos delay_;
  std::vector<core::Context*> fleet_;
};

}  // namespace xrdma::tools
