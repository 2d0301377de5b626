#include "util/backoff.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace mummi::util {

double BackoffPolicy::delay_s(int attempt, Rng& rng) const {
  if (base_delay_s <= 0.0) return 0.0;
  const double raw =
      base_delay_s * std::pow(multiplier, static_cast<double>(attempt));
  const double capped = std::min(raw, max_delay_s);
  if (jitter_frac <= 0.0) return capped;
  // Symmetric jitter in [-frac, +frac) of the capped delay; never negative.
  const double jitter = capped * jitter_frac * (2.0 * rng.uniform() - 1.0);
  return std::max(0.0, capped + jitter);
}

SleepFn wall_sleeper() {
  return [](double seconds) {
    if (seconds <= 0.0) return;
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  };
}

bool retry_with_backoff(const BackoffPolicy& policy, Rng& rng,
                        const SleepFn& sleep,
                        const std::function<bool()>& op) {
  // Contract: the operation always executes at least once. max_attempts <= 1
  // (including zero and negative values) means "no retries", never "never
  // try" — the pre-fix code returned false without invoking op at all.
  const int attempts = std::max(1, policy.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (op()) return true;
    if (attempt + 1 >= attempts) break;
    const double delay = policy.delay_s(attempt, rng);
    if (sleep) sleep(delay);
  }
  return false;
}

}  // namespace mummi::util
