//===- service/Load.h - Per-worker load accounting -------------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Load accounting for admission control and routing. Each worker carries
/// a WorkerLoad the front door reads when routing and admitting:
///
///  - Depth / BacklogTokens: queued-but-unstarted work, incremented by the
///    producer at enqueue and decremented by the worker when it takes a
///    request. Tokens are the routing cost proxy — the input length is
///    known at submit time, and parse time is near-linear in it (the
///    paper's Fig. 9), so routing on tokens approximates
///    shortest-expected-wait without any calibration.
///
///  - ActiveTokens: the tokens of the request the worker is parsing.
///    Routing adds them to the backlog, so a worker busy with one long
///    parse and an empty queue does not look idle; admission and shedding
///    read the queued backlog alone.
///
///  - CostModel: an EWMA of observed nanoseconds per token, updated by the
///    worker after every completed parse. The front door multiplies it by
///    the backlog (plus the incoming request) to estimate completion time
///    against the request's deadline — the reject-early path that keeps a
///    doomed request from wasting a queue slot some meetable request
///    needed. The model is advisory: while it is cold (no completed
///    parses yet) estimates are zero and deadline admission stays open.
///
/// Coherence protocol (the stale-backlog fix): the producer charges the
/// backlog *before* attempting the push and rolls back with undoEnqueue
/// if the push is refused; the worker credits it only after popping the
/// request. Since every decrement is preceded — in the RMW modification
/// order of the counter — by its matching increment, no reader can ever
/// observe the unsigned counters mid-wrap. The previous
/// protocol (charge after a successful push) let a fast worker's
/// decrement land first, so a concurrent submitter's feasibility read saw
/// BacklogTokens wrapped to ~2^64 and spuriously rejected a meetable
/// deadline request. Increments release, reads acquire, so a backlog
/// observed at routing time is a real bound on the work ahead of the
/// request being placed.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_SERVICE_LOAD_H
#define COSTAR_SERVICE_LOAD_H

#include <atomic>
#include <cstdint>

namespace costar {
namespace service {

/// EWMA nanoseconds-per-token service-cost model, fixed-point, updated by
/// one worker and read by any submitter.
class CostModel {
  /// EWMA of ns/token in 1/256 fixed point. 0 = cold (no observations).
  std::atomic<uint64_t> NsPerTokenFx{0};

public:
  static constexpr unsigned FxShift = 8;

  /// Worker side: blend one completed parse (\p Tokens tokens in
  /// \p Nanos wall nanoseconds) into the model with weight 1/8. Single
  /// writer; racy readers see either the old or new value.
  void observe(uint64_t Tokens, uint64_t Nanos) {
    if (Tokens == 0)
      return;
    uint64_t Sample = (Nanos << FxShift) / Tokens;
    uint64_t Old = NsPerTokenFx.load(std::memory_order_relaxed);
    uint64_t New = Old == 0 ? Sample : Old - Old / 8 + Sample / 8;
    NsPerTokenFx.store(New, std::memory_order_relaxed);
  }

  /// Estimated micros to parse \p Tokens tokens; 0 while the model is
  /// cold. Saturates instead of wrapping: an absurd backlog reading must
  /// estimate as "infeasible", never overflow back to a small number.
  uint64_t estimateMicros(uint64_t Tokens) const {
    uint64_t Fx = NsPerTokenFx.load(std::memory_order_acquire);
    if (Fx == 0)
      return 0;
    if (Tokens > UINT64_MAX / Fx)
      return UINT64_MAX >> (FxShift + 10);
    return (Tokens * Fx) >> FxShift >> 10; // ns -> ~us (/1024)
  }

  bool cold() const {
    return NsPerTokenFx.load(std::memory_order_relaxed) == 0;
  }
};

/// One worker's published load: queue depth and backlog, in tokens.
/// Shared counters — submitters charge them and the owning worker credits
/// them, and the enqueue-before-push protocol above is what keeps every
/// read exact.
struct WorkerLoad {
  std::atomic<uint32_t> Depth{0};
  std::atomic<uint64_t> BacklogTokens{0};
  /// Advisory (routing only), so relaxed: a stale read picks a slightly
  /// busier valid worker, never a wrong one.
  std::atomic<uint64_t> ActiveTokens{0};

  /// Producer side, charged *before* the push is attempted (roll back
  /// with undoEnqueue if the push is refused).
  void onEnqueue(uint64_t Tokens) {
    Depth.fetch_add(1, std::memory_order_release);
    BacklogTokens.fetch_add(Tokens, std::memory_order_release);
  }

  /// Producer side: roll back a charge whose push was refused (queue
  /// full, or the service started draining).
  void undoEnqueue(uint64_t Tokens) {
    Depth.fetch_sub(1, std::memory_order_release);
    BacklogTokens.fetch_sub(Tokens, std::memory_order_release);
  }

  /// Consumer side: the owning worker, after popping the request.
  void onDequeue(uint64_t Tokens) {
    Depth.fetch_sub(1, std::memory_order_release);
    BacklogTokens.fetch_sub(Tokens, std::memory_order_release);
  }

  uint32_t depth() const { return Depth.load(std::memory_order_acquire); }
  uint64_t backlogTokens() const {
    return BacklogTokens.load(std::memory_order_acquire);
  }
  uint64_t activeTokens() const {
    return ActiveTokens.load(std::memory_order_relaxed);
  }
};

} // namespace service
} // namespace costar

#endif // COSTAR_SERVICE_LOAD_H
