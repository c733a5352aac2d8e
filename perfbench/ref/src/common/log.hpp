// Tiny leveled logger. Default level is kWarn so library use is quiet;
// benchmarks raise it to kInfo for progress lines; the VMSTORM_LOG_LEVEL
// environment variable (debug|info|warn|error|off) overrides the default
// at startup.
//
// Lines carry an optional component tag and, while a simulation engine is
// running (it installs a ScopedLogClock), the current simulated time:
//
//   [ 12.345678] [WARN ] [sim] event queue drained with 2 live task(s)...
//
// Output goes through a pluggable sink (default: stderr) so tests can
// capture it. The LOG_* macros are source-compatible with the original
// logger; VMSTORM_CLOG adds the component tag.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace vmstorm {

enum class LogLevel { kDebug = 0, kInfo, kWarn, kError, kOff };

/// Current threshold. The first call applies VMSTORM_LOG_LEVEL (if set and
/// parseable) on top of the built-in kWarn default.
LogLevel log_level();
void set_log_level(LogLevel level);

/// Parses "debug|info|warn|error|off" (case-insensitive); returns false on
/// anything else. Exposed for tests.
bool parse_log_level(const std::string& text, LogLevel* out);

/// One formatted log line, pre-dispatch.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  const char* component = "";  ///< "" when the site did not tag one
  bool has_sim_time = false;
  double sim_time = 0;         ///< simulated seconds, when an engine runs
  std::string message;
};

/// Receives every record at or above the threshold. An empty function
/// restores the default stderr sink.
using LogSink = std::function<void(const LogRecord&)>;
void set_log_sink(LogSink sink);

/// Renders a record the way the default sink prints it (exposed so custom
/// sinks and tests can reuse the format).
std::string format_log_record(const LogRecord& record);

void log_message(LogLevel level, const std::string& msg);
void log_message(LogLevel level, const char* component, const std::string& msg);

/// Installs `clock` as the simulated-time source for log prefixes for the
/// guard's lifetime, restoring the previous source on destruction.
/// sim::Engine::run wraps the event loop in one of these.
class ScopedLogClock {
 public:
  explicit ScopedLogClock(std::function<double()> clock);
  ~ScopedLogClock();
  ScopedLogClock(const ScopedLogClock&) = delete;
  ScopedLogClock& operator=(const ScopedLogClock&) = delete;

 private:
  std::function<double()> prev_;
};

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level, const char* component = "")
      : level_(level), component_(component) {}
  ~LogLine() { log_message(level_, component_, os_.str()); }
  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* component_;
  std::ostringstream os_;
};
}  // namespace detail

#define VMSTORM_LOG(level)                                   \
  if (::vmstorm::log_level() <= ::vmstorm::LogLevel::level)  \
  ::vmstorm::detail::LogLine(::vmstorm::LogLevel::level)

/// Component-tagged log line: VMSTORM_CLOG(kInfo, "net") << "...";
#define VMSTORM_CLOG(level, component)                       \
  if (::vmstorm::log_level() <= ::vmstorm::LogLevel::level)  \
  ::vmstorm::detail::LogLine(::vmstorm::LogLevel::level, component)

#define LOG_DEBUG VMSTORM_LOG(kDebug)
#define LOG_INFO VMSTORM_LOG(kInfo)
#define LOG_WARN VMSTORM_LOG(kWarn)
#define LOG_ERROR VMSTORM_LOG(kError)

}  // namespace vmstorm
