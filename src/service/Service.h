//===- service/Service.h - Fault-tolerant parse-service runtime -*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parse-service runtime: core-pinned workers, per-worker SPSC
/// request channels, grammar-affinity routing, and end-to-end failure
/// semantics. This is the "millions of users" backbone the ROADMAP asks
/// for, and its headline is robustness rather than raw throughput:
///
///  - Every request carries an optional absolute deadline that
///    propagates into the parse's ParseBudget wall-clock cap, so an
///    admitted request can never hold a worker past its usefulness.
///  - The front door does admission control: bounded channels, load
///    accounting (service/Load.h), reject-with-Overloaded when a full
///    queue or an unmeetable deadline makes the request doomed, and
///    overload shedding by priority class (service/Request.h).
///  - Workers retry transient failures in place with deterministic
///    jittered backoff (robust/Retry.h) and reuse the hashed->AVL
///    backend downgrade (robust/Degradation.h).
///  - A per-grammar circuit breaker (service/CircuitBreaker.h) converts
///    repeated infrastructure failures into fast BreakerOpen refusals
///    and half-opens on a probe schedule.
///  - Shutdown is a graceful drain: queued requests are finished (their
///    budgets and deadlines still honored), every accepted request gets
///    exactly one response, and workers publish their warm caches on the
///    way out.
///
/// Grammar-affinity routing keeps each core's serving state hot: every
/// worker serves a fixed subset of the registered grammars, holding one
/// thread-local warm SLL cache copy and one epoch arena per grammar, and
/// exchanges warmth with the grammar's SharedSllCache on the PR-1
/// publish/adopt protocol. Routing among a grammar's home workers picks
/// the least outstanding tokens, queued plus in progress (input length is
/// the cost proxy; parse time is near-linear in tokens, Fig. 9).
///
/// Scheduling is strict FIFO per home worker: each worker drains its own
/// SPSC channel in arrival order, and a request is always served by the
/// home worker the front door routed it to.
///
/// Chaos: the runtime accepts a robust::FaultPlan (parse-path faults,
/// one injector per worker life) and a ServiceChaosPlan (worker death +
/// respawn, queue stalls), both seed-deterministic. The chaos suite
/// (tests/service/) drives hundreds of seeded trials and asserts zero
/// crashes, exactly-once responses, and bit-identical results vs.
/// single-threaded parses for every request that succeeds.
///
/// workload::BatchParser runs on this runtime, so every batch guarantee —
/// result determinism across thread counts, trace merge order, quarantine
/// semantics — is enforced on the service path by the batch suites too.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_SERVICE_SERVICE_H
#define COSTAR_SERVICE_SERVICE_H

#include "core/Parser.h"
#include "core/SharedSllCache.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "robust/Degradation.h"
#include "robust/FaultInjection.h"
#include "robust/Retry.h"
#include "service/Chaos.h"
#include "service/CircuitBreaker.h"
#include "service/Load.h"
#include "service/Request.h"
#include "service/SpscQueue.h"

#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace costar {
namespace service {

/// The service's scheduler. FifoAffinity is the only one: strict FIFO
/// draining of per-worker SPSC channels, every request served by the
/// home worker the front door routed it to.
enum class SchedulerBackend : uint8_t { FifoAffinity };

/// Stable name for logs and bench records ("fifo_affinity").
const char *schedulerBackendName(SchedulerBackend B);

/// \p Explicit if set, else FifoAffinity.
SchedulerBackend
resolveSchedulerBackend(std::optional<SchedulerBackend> Explicit);

struct ServiceOptions {
  /// Worker threads; 0 means one per hardware thread.
  unsigned Workers = 0;
  /// Pin worker i to CPU i (mod hardware threads), best-effort: pinning
  /// failures (containers, restricted schedulers) are counted, not fatal.
  bool PinWorkers = true;
  /// Per-worker channel capacity, rounded up to a power of two. A full
  /// channel is an admission rejection, never a blocking wait.
  size_t QueueCapacity = 1024;
  /// Scheduler backend. It has one value (FifoAffinity); the field exists
  /// for existing callers that name it.
  std::optional<SchedulerBackend> Scheduler;
  /// Base per-parse knobs. Trace, Metrics, Faults, and AllocArena are
  /// worker-owned on the service path and ignored here; a request
  /// deadline tightens Budget.MaxWallMicros per parse.
  ParseOptions Parse;
  /// Per-grammar warm-cache sharing across workers (publish/adopt).
  bool ShareCache = true;
  /// Requests a worker parses on one grammar between publish/adopt
  /// exchanges with that grammar's shared cache.
  uint32_t PublishInterval = 8;
  /// Route parses through robust::parseRobust (hashed->AVL downgrade on
  /// retryable errors).
  bool DegradeOnError = true;
  /// In-place retry policy for transient failures (after the downgrade
  /// path, a still-failing request is retried whole with backoff).
  robust::BackoffPolicy Retry;
  /// Seed for the per-worker deterministic jitter streams.
  uint64_t RetrySeed = 0x5EED5EEDull;
  /// Consecutive final-Error parses of one grammar that trip its breaker;
  /// 0 disables circuit breaking.
  uint32_t BreakerThreshold = 8;
  /// How long a tripped breaker refuses before half-opening one probe.
  uint64_t BreakerCooldownMicros = 2000;
  /// Reject a deadline request at the front door when the routed worker's
  /// estimated completion time (cost model x backlog) exceeds it.
  bool AdmitByDeadline = true;
  /// Queue-fullness fractions above which BestEffort / Batch requests are
  /// shed (Interactive is never shed). >= 1.0 disables that tier.
  double ShedBestEffortAt = 0.75;
  double ShedBatchAt = 0.90;
  /// Merge per-worker metrics registries (and front-door counters) into
  /// metrics() at drain.
  bool CollectMetrics = true;
  /// Record parse events into per-worker ring buffers, merged into
  /// trace() at drain ordered by request id (events of one request are
  /// contiguous; cache-exchange events carry Word == UINT32_MAX).
  bool CollectTrace = false;
  size_t TraceCapacityPerThread = 1u << 22;
  /// Deterministic parse-path fault plan, instantiated as one injector
  /// per worker life (a chaos respawn starts a fresh injector).
  const robust::FaultPlan *Faults = nullptr;
  /// Service-level chaos plan (worker death/respawn, queue stalls).
  const ServiceChaosPlan *Chaos = nullptr;
};

/// Aggregate the service exposes after drain() (per-worker state is
/// merged once workers have joined; reading before drain is a race).
struct ServiceReport {
  obs::MetricsRegistry Metrics;
  std::vector<obs::TraceEvent> Trace;
  uint64_t TraceDropped = 0;
};

class ParseService {
public:
  explicit ParseService(ServiceOptions Opts);
  ~ParseService();

  ParseService(const ParseService &) = delete;
  ParseService &operator=(const ParseService &) = delete;

  /// Registers a grammar before start(). Builds the per-grammar static
  /// work (analysis, SLL stable-return tables) unless the caller lends
  /// prebuilt tables (\p Analysis / \p Tables, which must outlive the
  /// service — workload::BatchParser lends its own). \returns the
  /// GrammarId requests name.
  uint32_t addGrammar(const Grammar &G, NonterminalId Start,
                      const GrammarAnalysis *Analysis = nullptr,
                      const PredictionTables *Tables = nullptr);

  /// Seeds \p GrammarId's shared warm cache from a snapshot-loaded SLL
  /// cache (src/snapshot/), so the first worker to serve that grammar
  /// adopts pre-trained prediction state instead of starting cold. Same
  /// contract as SharedSllCache::adopt: \returns false, seeding nothing,
  /// on a null cache or a backend mismatch. Call between addGrammar and
  /// start().
  bool warmStart(uint32_t GrammarId, std::shared_ptr<SllCache> Loaded);

  /// Spawns (and pins) the workers. addGrammar is frozen after this.
  void start();

  /// The front door. Runs admission control (shedding, deadline
  /// feasibility, breaker, channel capacity) and either enqueues the
  /// request — \p Done will be invoked exactly once, on the worker thread
  /// that finishes it — or refuses it, invoking \p Done inline with the
  /// refusal Response before returning. Either way \p Done is invoked
  /// exactly once per submit. Thread-safe. \returns
  /// ResponseStatus::Done when the request was queued (its terminal
  /// status arrives via \p Done later); otherwise the refusal status
  /// that was just delivered inline.
  ResponseStatus submit(Request R, ResponseCallback Done);

  /// Graceful shutdown: stops admitting, lets workers finish every queued
  /// request (budgets and deadlines still honored), publishes final
  /// caches, joins, and merges per-worker observability state. Idempotent.
  void drain();

  bool started() const { return Started; }
  unsigned workers() const { return NumWorkers; }

  /// Post-drain merged observability (metrics, trace). Also valid before
  /// start().
  const ServiceReport &report() const { return Report; }

  /// DFA states in \p GrammarId's shared cache snapshot (0 when sharing
  /// is off). Stable only after drain().
  size_t sharedCacheStates(uint32_t GrammarId) const;

  /// The grammar's breaker, for tests and diagnostics.
  const CircuitBreaker &breaker(uint32_t GrammarId) const;

  /// Workers that died to the chaos plan and were respawned (post-drain).
  uint64_t workerRespawns() const { return Respawns; }

private:
  struct GrammarEntry;
  struct WorkerState;
  struct QueuedRequest;

  void workerMain(unsigned WorkerIdx);
  /// One worker life: serves requests until drain (returns false) or a
  /// chaos death (returns true -> respawn with fresh state).
  bool workerLife(unsigned WorkerIdx, WorkerState &WS);
  void processRequest(WorkerState &WS, QueuedRequest &&QR);
  void refuse(const Request &R, ResponseCallback &Done, ResponseStatus S,
              const char *Refusal);

  ServiceOptions Opts;
  std::vector<std::unique_ptr<GrammarEntry>> Grammars;

  /// Per-worker SPSC request channels.
  std::vector<std::unique_ptr<SpscQueue<QueuedRequest>>> Queues;
  /// Serializes multi-threaded submitters per channel (the channel itself
  /// stays SPSC); drain()'s barrier walks these locks.
  std::vector<std::unique_ptr<std::mutex>> ProducerLocks;
  std::vector<std::unique_ptr<WorkerLoad>> Loads;
  std::vector<std::thread> Threads;
  /// Per-worker observability sinks, allocated at start() and merged at
  /// drain(); they survive chaos respawns (observability is harness
  /// state, not serving state).
  std::vector<std::unique_ptr<obs::RingBufferTracer>> Tracers;
  std::vector<obs::MetricsRegistry> Registries;

  std::atomic<bool> Accepting{false};
  std::atomic<bool> Stopping{false};
  bool Started = false;
  bool Drained = false;
  unsigned NumWorkers = 0;

  /// Front-door counters (submitter threads), folded into Report.Metrics
  /// at drain.
  std::atomic<uint64_t> Submitted{0}, RejectedQueueFull{0},
      RejectedDeadline{0}, ShedCount{0}, BreakerRejected{0}, PinFailures{0};
  std::atomic<uint64_t> Respawns{0};

  ServiceReport Report;
};

} // namespace service
} // namespace costar

#endif // COSTAR_SERVICE_SERVICE_H
