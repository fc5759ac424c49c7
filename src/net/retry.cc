#include "net/retry.h"

#include <algorithm>
#include <thread>

#include "obs/trace.h"

namespace vizndp::net {

std::uint64_t MixBits(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::chrono::microseconds JitteredPeriod(std::chrono::microseconds period,
                                         std::uint64_t seed,
                                         std::uint64_t tick) {
  const std::uint64_t r = MixBits(seed ^ (tick * 0x9E3779B97F4A7C15ull));
  const double u = static_cast<double>(r >> 11) * 0x1.0p-53;  // [0, 1)
  const double scale = 1.0 + kSweepJitter * (2.0 * u - 1.0);
  const auto out = std::chrono::microseconds(
      static_cast<std::int64_t>(static_cast<double>(period.count()) * scale));
  return out.count() > 0 ? out : std::chrono::microseconds(1);
}

std::chrono::microseconds RetryPolicy::DelayBefore(int retry,
                                                   std::uint64_t salt) const {
  if (retry < 1 || base_delay.count() <= 0) {
    return std::chrono::microseconds{0};
  }
  // base * 2^(retry-1), saturating at max_delay (shift capped so a large
  // retry count cannot overflow).
  const int shift = std::min(retry - 1, 40);
  const auto exp = static_cast<std::uint64_t>(base_delay.count()) << shift;
  const auto capped =
      std::min<std::uint64_t>(exp, static_cast<std::uint64_t>(
                                       std::max<std::int64_t>(
                                           max_delay.count(), 0)));
  if (jitter <= 0.0) return std::chrono::microseconds(capped);
  const std::uint64_t h =
      MixBits(seed ^ MixBits(static_cast<std::uint64_t>(retry)) ^ salt);
  // Uniform in [0, 1): 53 high bits of the hash.
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  const double factor = 1.0 - std::min(jitter, 1.0) * u;
  return std::chrono::microseconds(
      static_cast<std::int64_t>(static_cast<double>(capped) * factor));
}

void BackoffSleep(const RetryPolicy& policy, int retry, std::uint64_t salt) {
  const auto delay = policy.DelayBefore(retry, salt);
  if (delay.count() > 0) {
    // The inter-attempt gap is part of a traced request's story: render
    // the backoff as its own span instead of unexplained dead air
    // between two rpc.attempt spans.
    obs::Span span("net.backoff");
    std::this_thread::sleep_for(delay);
  }
}

}  // namespace vizndp::net
