#include "common/log.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <mutex>
#include <utility>

#include "common/env.hpp"

namespace vmstorm {
namespace {

std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::mutex g_mutex;  // guards g_sink and g_clock; g_level is atomic

LogSink& sink_slot() {
  static LogSink sink;
  return sink;
}

std::function<double()>& clock_slot() {
  static std::function<double()> clock;
  return clock;
}

const char* level_tag(LogLevel l) {
  switch (l) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}

/// Applies VMSTORM_LOG_LEVEL exactly once, before the first threshold read.
void init_level_from_env() {
  static const bool done = [] {
    if (const char* env = common::env_or("VMSTORM_LOG_LEVEL")) {
      LogLevel parsed;
      if (parse_log_level(env, &parsed)) {
        g_level.store(parsed, std::memory_order_relaxed);
      } else {
        std::fprintf(stderr,
                     "[WARN ] VMSTORM_LOG_LEVEL='%s' not recognized "
                     "(want debug|info|warn|error|off)\n",
                     env);
      }
    }
    return true;
  }();
  (void)done;
}

}  // namespace

bool parse_log_level(const std::string& text, LogLevel* out) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "debug") *out = LogLevel::kDebug;
  else if (lower == "info") *out = LogLevel::kInfo;
  else if (lower == "warn" || lower == "warning") *out = LogLevel::kWarn;
  else if (lower == "error") *out = LogLevel::kError;
  else if (lower == "off" || lower == "none") *out = LogLevel::kOff;
  else return false;
  return true;
}

LogLevel log_level() {
  init_level_from_env();
  return g_level.load(std::memory_order_relaxed);
}

void set_log_level(LogLevel level) {
  init_level_from_env();  // keep ordering: env applies before explicit sets
  g_level.store(level, std::memory_order_relaxed);
}

void set_log_sink(LogSink sink) {
  std::lock_guard<std::mutex> lock(g_mutex);
  sink_slot() = std::move(sink);
}

std::string format_log_record(const LogRecord& record) {
  std::string out;
  if (record.has_sim_time) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "[%10.6f] ", record.sim_time);
    out += buf;
  }
  out += '[';
  out += level_tag(record.level);
  out += "] ";
  if (record.component[0] != '\0') {
    out += '[';
    out += record.component;
    out += "] ";
  }
  out += record.message;
  return out;
}

ScopedLogClock::ScopedLogClock(std::function<double()> clock) {
  std::lock_guard<std::mutex> lock(g_mutex);
  prev_ = std::move(clock_slot());
  clock_slot() = std::move(clock);
}

ScopedLogClock::~ScopedLogClock() {
  std::lock_guard<std::mutex> lock(g_mutex);
  clock_slot() = std::move(prev_);
}

void log_message(LogLevel level, const std::string& msg) {
  log_message(level, "", msg);
}

void log_message(LogLevel level, const char* component,
                 const std::string& msg) {
  if (level < log_level()) return;
  std::lock_guard<std::mutex> lock(g_mutex);
  LogRecord record;
  record.level = level;
  record.component = component;
  record.message = msg;
  if (const auto& clock = clock_slot()) {
    record.has_sim_time = true;
    record.sim_time = clock();
  }
  if (const auto& sink = sink_slot()) {
    sink(record);
  } else {
    std::fprintf(stderr, "%s\n", format_log_record(record).c_str());
  }
}

}  // namespace vmstorm
