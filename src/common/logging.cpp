#include "common/logging.hpp"

#include <cstdarg>
#include <cstdio>

namespace xrdma {

Logger& Logger::global() {
  static Logger logger;
  return logger;
}

Registration Logger::add_sink(Sink sink) {
  const auto it = sinks_.insert(sinks_.end(), std::move(sink));
  return Registration([this, it] { sinks_.erase(it); });
}

void Logger::log(Nanos sim_time, LogLevel level, std::string component,
                 std::string message) {
  if (level < min_level_) return;
  LogRecord rec{sim_time, level, std::move(component), std::move(message)};
  for (auto& sink : sinks_) sink(rec);
}

std::string strfmt(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

}  // namespace xrdma
