//===- robust/Retry.h - Deterministic jittered retry backoff ---*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Retry policy for transient infrastructure failures on the service
/// path. A parse that ends in ParseResult::Error{FaultInjected} (or
/// InvalidState) models a transient infrastructure fault; the service
/// retries it in place a bounded number of times, sleeping an
/// exponentially growing, jittered delay between attempts so a herd of
/// workers hitting the same faulty substrate does not retry in lockstep.
///
/// Jitter is deterministic: a splitmix64 stream seeded per worker, so two
/// runs with the same seeds produce the same delay schedule — chaos tests
/// stay reproducible while still exercising decorrelated timing. The
/// schedule is the standard "decorrelated-ish" half-jitter: attempt k
/// sleeps uniformly in [Base*2^k / 2, Base*2^k), capped at MaxMicros.
///
/// Retries are strictly in place: once a worker has popped a request from
/// its channel, every retry attempt runs on that same worker and the
/// request is never re-enqueued, so the exactly-once response invariant
/// is unaffected by the retry loop and the backoff stream is that
/// worker's (jitter stays per-worker-deterministic).
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_ROBUST_RETRY_H
#define COSTAR_ROBUST_RETRY_H

#include <algorithm>
#include <cstdint>

namespace costar {
namespace robust {

/// Bounded exponential backoff with deterministic jitter.
struct BackoffPolicy {
  /// Retry attempts after the first try; 0 disables in-place retries.
  uint32_t MaxRetries = 2;
  /// First-retry delay ceiling in microseconds.
  uint64_t BaseMicros = 50;
  /// Cap on any single delay.
  uint64_t MaxMicros = 5000;
};

/// One worker's deterministic jitter stream + schedule evaluation.
class BackoffSchedule {
  BackoffPolicy Policy;
  uint64_t State;

  uint64_t next() {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }

public:
  BackoffSchedule(const BackoffPolicy &Policy, uint64_t Seed)
      : Policy(Policy), State(Seed) {}

  uint32_t maxRetries() const { return Policy.MaxRetries; }

  /// Jittered delay before retry attempt \p Attempt (0-based): uniform in
  /// [ceil/2, ceil) where ceil = min(Base << Attempt, Max).
  uint64_t delayMicros(uint32_t Attempt) {
    unsigned Shift = std::min<uint32_t>(Attempt, 20);
    uint64_t Ceil =
        std::min<uint64_t>(Policy.BaseMicros << Shift, Policy.MaxMicros);
    if (Ceil <= 1)
      return Ceil;
    uint64_t Half = Ceil / 2;
    return Half + next() % (Ceil - Half);
  }
};

} // namespace robust
} // namespace costar

#endif // COSTAR_ROBUST_RETRY_H
