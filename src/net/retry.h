// Reusable retry policy: exponential backoff with deterministic,
// seedable jitter. Used by rpc::Client for idempotent calls and by
// ReconnectingTransport when re-dialing a lost peer.
//
// Jitter is a pure function of (seed, attempt, salt) — no global RNG
// state — so a test that fixes the seed sees the exact same delay
// schedule on every run, and two clients with different salts decorrelate
// instead of retrying in lockstep (the thundering-herd fix).
#pragma once

#include <chrono>
#include <cstdint>

namespace vizndp::net {

struct RetryPolicy {
  // Total tries including the first; 1 disables retrying.
  int max_attempts = 1;
  // Delay before retry k (k = 1 is the first retry) starts at base_delay
  // and doubles per retry, capped at max_delay.
  std::chrono::microseconds base_delay{1000};
  std::chrono::microseconds max_delay{200'000};
  // Fraction of the computed delay that is randomized: the actual delay
  // is uniform in [delay * (1 - jitter), delay]. 0 = fully deterministic.
  double jitter = 0.5;
  // Seed for the jitter stream; fixed default keeps tests reproducible.
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;

  bool enabled() const { return max_attempts > 1; }

  // Backoff before the `retry`-th retry (1-based). `salt` decorrelates
  // independent users of one policy (e.g. hash of the method name).
  std::chrono::microseconds DelayBefore(int retry,
                                        std::uint64_t salt = 0) const;
};

// Stateless 64-bit mix (splitmix64 finalizer) — shared so tests can
// predict jitter values.
std::uint64_t MixBits(std::uint64_t x);

// Fraction by which JitteredPeriod spreads a sweep period either way.
inline constexpr double kSweepJitter = 0.25;

// Sleep before sweep `tick` of a periodic prober (HealthMonitor,
// FleetScraper): `period` scaled by a factor uniform in
// [1 - kSweepJitter, 1 + kSweepJitter], at least 1 us. A pure function
// of (seed, tick), so a fixed-seed run sleeps the same schedule every
// time and sweepers with distinct seeds never run in lockstep.
std::chrono::microseconds JitteredPeriod(std::chrono::microseconds period,
                                         std::uint64_t seed,
                                         std::uint64_t tick);

// Sleeps for the policy's backoff before the given retry.
void BackoffSleep(const RetryPolicy& policy, int retry,
                  std::uint64_t salt = 0);

}  // namespace vizndp::net
