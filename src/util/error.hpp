// Error types and invariant-checking macros used across mummi-cpp.
#pragma once

#include <stdexcept>
#include <string>

namespace mummi::util {

/// Base class for all errors raised by the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when configuration is missing or malformed.
class ConfigError : public Error {
 public:
  using Error::Error;
};

/// Raised on I/O failures that survived armored retries.
class IoError : public Error {
 public:
  using Error::Error;
};

/// Raised when a datastore key/namespace is absent or conflicts.
class StoreError : public Error {
 public:
  using Error::Error;
};

/// Raised when a store is temporarily unreachable (failed or injected
/// transient I/O). Distinct from StoreError so retry layers can tell "retry
/// later" apart from "the record does not exist".
class UnavailableError : public StoreError {
 public:
  using StoreError::StoreError;
};

/// Raised when a job specification cannot be satisfied or tracked.
class SchedError : public Error {
 public:
  using Error::Error;
};

/// Raised on malformed serialized data (checkpoints, npy, tar, ...).
class FormatError : public Error {
 public:
  using Error::Error;
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  throw Error(std::string("check failed: ") + expr + " at " + file + ":" +
              std::to_string(line) + (msg.empty() ? "" : ": " + msg));
}
}  // namespace detail

}  // namespace mummi::util

/// Runtime invariant check; throws mummi::util::Error when violated.
/// Always active (not compiled out in release builds): the workflow manager
/// must fail loudly, not corrupt a campaign.
#define MUMMI_CHECK(expr)                                                  \
  do {                                                                     \
    if (!(expr))                                                           \
      ::mummi::util::detail::check_failed(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define MUMMI_CHECK_MSG(expr, msg)                                          \
  do {                                                                      \
    if (!(expr))                                                            \
      ::mummi::util::detail::check_failed(#expr, __FILE__, __LINE__, msg); \
  } while (0)

/// Invariant check on hot paths: active in debug builds, compiled out under
/// NDEBUG. Use where the cost of checking would dominate the checked work
/// (e.g. per-distance dimension checks in the selection layer).
#ifndef NDEBUG
#define MUMMI_DEBUG_ASSERT(expr, msg) MUMMI_CHECK_MSG(expr, msg)
#else
#define MUMMI_DEBUG_ASSERT(expr, msg) \
  do {                                \
  } while (0)
#endif
