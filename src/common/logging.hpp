// Structured logging with pluggable sinks.
//
// The analysis framework's slow-segment logs (§VI-A method III) are emitted
// through this logger so the Monitor can collect them; tests install a
// capturing sink to assert on what was logged.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <string>

#include "common/registration.hpp"
#include "common/time.hpp"

namespace xrdma {

enum class LogLevel : int { debug = 0, info = 1, warn = 2, error = 3 };

struct LogRecord {
  Nanos sim_time = 0;
  LogLevel level = LogLevel::info;
  std::string component;  // e.g. "xr.channel", "rnic", "trace"
  std::string message;
};

class Logger {
 public:
  using Sink = std::function<void(const LogRecord&)>;

  /// Process-wide logger. Simulations are single-threaded so no locking.
  static Logger& global();

  void set_min_level(LogLevel level) { min_level_ = level; }

  /// True when a record at `level` would reach a sink: callers format the
  /// message only then.
  bool wants(LogLevel level) const {
    return level >= min_level_ && !sinks_.empty();
  }

  /// Adds a sink; destroying the handle removes it.
  Registration add_sink(Sink sink);

  void log(Nanos sim_time, LogLevel level, std::string component,
           std::string message);

 private:
  LogLevel min_level_ = LogLevel::info;
  std::list<Sink> sinks_;  // stable iterators: each handle erases its own
};

/// printf-style formatting helper.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace xrdma
