// Minimal leveled logger.
//
// The library itself is silent by default (Error threshold); examples and
// debugging sessions can raise verbosity. Thread-safe: the threshold is an
// atomic and the sink serializes writes under a mutex, so fleet workers
// logging concurrently interleave whole lines, never bytes. (The original
// single-threaded design predates the PR-1 fleet.) A worker thread may tag
// itself with `setThreadWorkerIndex`; tagged lines render as
// "[INFO] [w3] message" so fleet logs attribute to the worker that wrote
// them.
#pragma once

#include <sstream>
#include <string>

namespace cookiepicker::util {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4 };

class Logger {
 public:
  static LogLevel threshold();
  static void write(LogLevel level, const std::string& message);
  static const char* levelName(LogLevel level);

  // Optional per-thread tag included in log lines (fleet worker index).
  // Negative clears the tag. Thread-local: each worker tags itself.
  static void setThreadWorkerIndex(int workerIndex);
  static int threadWorkerIndex();
};

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { Logger::write(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace cookiepicker::util

#define CP_LOG(level)                                              \
  if (static_cast<int>(level) <                                    \
      static_cast<int>(cookiepicker::util::Logger::threshold())) { \
  } else                                                           \
    cookiepicker::util::detail::LogLine(level)

#define CP_LOG_DEBUG CP_LOG(cookiepicker::util::LogLevel::Debug)
#define CP_LOG_INFO CP_LOG(cookiepicker::util::LogLevel::Info)
#define CP_LOG_WARN CP_LOG(cookiepicker::util::LogLevel::Warn)
#define CP_LOG_ERROR CP_LOG(cookiepicker::util::LogLevel::Error)
