// Bounded exponential backoff with deterministic jitter.
//
// Paper Sec. 4.2/4.4: "everything fails at scale" — transient filesystem
// hiccups are survived by retrying, but naive immediate retries hammer
// a struggling service and synchronized retries from thousands of clients
// stampede it the moment it recovers. BackoffPolicy computes the canonical
// capped-exponential delay with jitter drawn from an explicit Rng, so retry
// schedules are reproducible bit-for-bit in the campaign simulator (the
// paper's "history files that may be replayed exactly").
//
// Sleeping is pluggable: real code sleeps the wall clock, and tests record
// the delays.
#pragma once

#include <functional>

#include "util/rng.hpp"

namespace mummi::util {

struct BackoffPolicy {
  int max_attempts = 4;        // total tries, including the first
  double base_delay_s = 1e-3;  // delay before the second attempt
  double multiplier = 2.0;     // growth per further attempt
  double max_delay_s = 0.5;    // cap on any single delay
  double jitter_frac = 0.25;   // +/- fraction of the delay, drawn from rng

  /// Delay (seconds) to wait after failed attempt number `attempt`
  /// (0-based: attempt 0 is the first try). Deterministic for a given rng
  /// state. Returns 0 when jitter/base are configured off.
  [[nodiscard]] double delay_s(int attempt, Rng& rng) const;
};

/// How retry loops wait: given the delay in seconds. Tests substitute their
/// own.
using SleepFn = std::function<void(double)>;

/// Sleeps the calling thread for real (the default for live runs).
[[nodiscard]] SleepFn wall_sleeper();

/// Runs `op` until it returns true or attempts are exhausted, backing off
/// between tries. Returns true on success, false when the policy gave up.
/// `sleep` may be empty, meaning "do not wait" (still bounded by attempts).
/// The operation always runs at least once: max_attempts <= 1 (including
/// zero and negative values) means "no retries", never "skip the operation".
bool retry_with_backoff(const BackoffPolicy& policy, Rng& rng,
                        const SleepFn& sleep,
                        const std::function<bool()>& op);

}  // namespace mummi::util
