#include "util/log.h"

#include <cstdio>
#include <mutex>

namespace cookiepicker::util {

namespace {
// Lines below this level are dropped.
constexpr LogLevel kThreshold = LogLevel::Error;
// Serializes the sink: a line is one fprintf, but concurrent fprintf calls
// to the same stream may interleave on some libcs; the mutex removes the
// ambiguity and keeps ordering sane for multi-line bursts.
std::mutex g_sinkMutex;
thread_local int t_workerIndex = -1;
}  // namespace

LogLevel Logger::threshold() { return kThreshold; }

void Logger::setThreadWorkerIndex(int workerIndex) {
  t_workerIndex = workerIndex < 0 ? -1 : workerIndex;
}

int Logger::threadWorkerIndex() { return t_workerIndex; }

const char* Logger::levelName(LogLevel level) {
  switch (level) {
    case LogLevel::Trace:
      return "TRACE";
    case LogLevel::Debug:
      return "DEBUG";
    case LogLevel::Info:
      return "INFO";
    case LogLevel::Warn:
      return "WARN";
    case LogLevel::Error:
      return "ERROR";
  }
  return "?";
}

void Logger::write(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(kThreshold)) return;
  std::lock_guard lock(g_sinkMutex);
  if (t_workerIndex >= 0) {
    std::fprintf(stderr, "[%s] [w%d] %s\n", levelName(level), t_workerIndex,
                 message.c_str());
  } else {
    std::fprintf(stderr, "[%s] %s\n", levelName(level), message.c_str());
  }
}

}  // namespace cookiepicker::util
