//===- service/Service.cpp - Fault-tolerant parse-service runtime -----------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include <algorithm>
#include <cassert>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

using namespace costar;
using namespace costar::service;

namespace {

uint64_t microsBetween(Clock::time_point From, Clock::time_point To) {
  if (To <= From)
    return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(To - From)
          .count());
}

} // namespace

const char *costar::service::schedulerBackendName(SchedulerBackend B) {
  switch (B) {
  case SchedulerBackend::FifoAffinity:
    return "fifo_affinity";
  }
  return "unknown";
}

SchedulerBackend costar::service::resolveSchedulerBackend(
    std::optional<SchedulerBackend> Explicit) {
  return Explicit.value_or(SchedulerBackend::FifoAffinity);
}

/// One registered grammar: its static tables (owned or lent), its shared
/// warm cache, its breaker and cost model, and the workers it homes on.
struct ParseService::GrammarEntry {
  const Grammar &G;
  NonterminalId Start;
  std::unique_ptr<GrammarAnalysis> OwnedAnalysis;
  std::unique_ptr<PredictionTables> OwnedTables;
  const GrammarAnalysis *Analysis = nullptr;
  const PredictionTables *Tables = nullptr;
  SharedSllCache Shared;
  CircuitBreaker Breaker;
  CostModel Cost;
  /// Workers that serve this grammar (fixed at start()).
  std::vector<unsigned> Home;

  GrammarEntry(const Grammar &G, NonterminalId Start,
               const ServiceOptions &Opts)
      : G(G), Start(Start), Shared(Opts.Parse.Backend),
        Breaker(Opts.BreakerThreshold, Opts.BreakerCooldownMicros) {}
};

/// One queued request: the request itself, its completion hook, and the
/// submit-time facts the worker needs (queue-wait accounting, breaker
/// probe flag).
struct ParseService::QueuedRequest {
  Request Req;
  ResponseCallback Done;
  Clock::time_point SubmitTime{};
  bool BreakerProbe = false;
};

/// One worker's serving state. Everything except the respawn bookkeeping
/// (LifetimeRequests, DeathsFired) is per-life: a chaos death resets the
/// warm caches, the arena, the fault injector, and the backoff stream —
/// warmth is lost, correctness is not.
struct ParseService::WorkerState {
  unsigned Index = 0;
  /// Requests taken across all lives (stall arms index into this).
  uint64_t LifetimeRequests = 0;
  /// Per-death-arm fire counts, surviving respawns (caps MaxDeaths).
  std::vector<uint32_t> DeathsFired;

  struct LocalGrammar {
    /// Thread-local warm cache copy, seeded lazily from the grammar's
    /// shared snapshot on first use this life.
    std::optional<SllCache> Cache;
    uint32_t SincePublish = 0;
  };
  std::vector<LocalGrammar> Locals;
  std::optional<adt::Arena> Arena;
  std::optional<robust::BackoffSchedule> Backoff;
};

ParseService::ParseService(ServiceOptions Opts) : Opts(std::move(Opts)) {}

ParseService::~ParseService() { drain(); }

uint32_t ParseService::addGrammar(const Grammar &G, NonterminalId Start,
                                  const GrammarAnalysis *Analysis,
                                  const PredictionTables *Tables) {
  assert(!Started && "addGrammar after start()");
  auto E = std::make_unique<GrammarEntry>(G, Start, Opts);
  if (Analysis) {
    E->Analysis = Analysis;
  } else {
    E->OwnedAnalysis = std::make_unique<GrammarAnalysis>(G, Start);
    E->Analysis = E->OwnedAnalysis.get();
  }
  if (Tables) {
    E->Tables = Tables;
  } else {
    E->OwnedTables = std::make_unique<PredictionTables>(G, *E->Analysis);
    E->Tables = E->OwnedTables.get();
  }
  Grammars.push_back(std::move(E));
  return static_cast<uint32_t>(Grammars.size() - 1);
}

bool ParseService::warmStart(uint32_t GrammarId,
                             std::shared_ptr<SllCache> Loaded) {
  assert(!Started && "warmStart after start()");
  if (Started || GrammarId >= Grammars.size())
    return false;
  return Grammars[GrammarId]->Shared.adopt(std::move(Loaded));
}

void ParseService::start() {
  assert(!Started && "start() twice");
  assert(!Grammars.empty() && "start() with no grammars");
  if (Started)
    return;
  unsigned W = Opts.Workers;
  if (W == 0)
    W = std::max(1u, std::thread::hardware_concurrency());

  // Grammar-affinity homes. With enough workers each serves exactly one
  // grammar (its caches and arena stay hot for that grammar alone);
  // otherwise each grammar homes on one worker and workers multiplex.
  unsigned G = static_cast<unsigned>(Grammars.size());
  if (G <= W) {
    for (unsigned I = 0; I < W; ++I)
      Grammars[I % G]->Home.push_back(I);
  } else {
    for (unsigned I = 0; I < G; ++I)
      Grammars[I]->Home.push_back(I % W);
  }

  NumWorkers = W;
  ProducerLocks.reserve(W);
  Loads.reserve(W);
  Tracers.resize(W);
  for (unsigned I = 0; I < W; ++I) {
    Queues.push_back(
        std::make_unique<SpscQueue<QueuedRequest>>(Opts.QueueCapacity));
    ProducerLocks.push_back(std::make_unique<std::mutex>());
    Loads.push_back(std::make_unique<WorkerLoad>());
    if (Opts.CollectTrace)
      Tracers[I] =
          std::make_unique<obs::RingBufferTracer>(Opts.TraceCapacityPerThread);
  }
  Registries.resize(Opts.CollectMetrics ? W : 0);

  Started = true;
  Accepting.store(true, std::memory_order_release);
  Threads.reserve(W);
  for (unsigned I = 0; I < W; ++I)
    Threads.emplace_back(&ParseService::workerMain, this, I);
}

void ParseService::refuse(const Request &R, ResponseCallback &Done,
                          ResponseStatus S, const char *Refusal) {
  Response Resp;
  Resp.Id = R.Id;
  Resp.GrammarId = R.GrammarId;
  Resp.Status = S;
  Resp.Refusal = Refusal;
  if (Done)
    Done(std::move(Resp));
}

ResponseStatus ParseService::submit(Request R, ResponseCallback Done) {
  Submitted.fetch_add(1, std::memory_order_relaxed);
  Clock::time_point Now = Clock::now();

  if (!Started || !Accepting.load(std::memory_order_acquire)) {
    refuse(R, Done, ResponseStatus::Rejected, "not_accepting");
    return ResponseStatus::Rejected;
  }
  if (R.GrammarId >= Grammars.size() || !R.Input) {
    refuse(R, Done, ResponseStatus::Rejected, "invalid_request");
    return ResponseStatus::Rejected;
  }
  GrammarEntry &GE = *Grammars[R.GrammarId];

  // Route: least outstanding tokens (queued plus in progress) among the
  // grammar's home workers, depth breaking ties. Loads are snapshots — a
  // stale read picks a slightly busier valid worker, never a wrong one.
  // BestTokens keeps the chosen worker's queued backlog for admission.
  unsigned Target = GE.Home.front();
  uint64_t BestTokens = 0;
  uint64_t BestOutstanding = UINT64_MAX;
  uint32_t BestDepth = UINT32_MAX;
  for (unsigned W : GE.Home) {
    uint64_t T = Loads[W]->backlogTokens();
    uint64_t Outstanding = T + Loads[W]->activeTokens();
    uint32_t D = Loads[W]->depth();
    if (Outstanding < BestOutstanding ||
        (Outstanding == BestOutstanding && D < BestDepth)) {
      BestOutstanding = Outstanding;
      BestTokens = T;
      BestDepth = D;
      Target = W;
    }
  }

  // Overload shedding by priority class, before anything consumes shared
  // breaker/queue state. Interactive is never shed.
  double Fullness = double(Loads[Target]->depth()) /
                    double(Queues[Target]->capacity());
  if ((R.Class == Priority::BestEffort && Fullness >= Opts.ShedBestEffortAt) ||
      (R.Class == Priority::Batch && Fullness >= Opts.ShedBatchAt)) {
    ShedCount.fetch_add(1, std::memory_order_relaxed);
    refuse(R, Done, ResponseStatus::Shed, "overload");
    return ResponseStatus::Shed;
  }

  // Deadline feasibility: a request that cannot finish in time must not
  // consume a queue slot some meetable request needed.
  uint64_t Tokens = R.Input->size();
  if (R.Deadline) {
    if (Now >= *R.Deadline) {
      RejectedDeadline.fetch_add(1, std::memory_order_relaxed);
      refuse(R, Done, ResponseStatus::Expired, "");
      return ResponseStatus::Expired;
    }
    if (Opts.AdmitByDeadline) {
      // Feasibility reads the routing loop's snapshot of the target's
      // backlog (BestTokens) instead of re-reading its counter: the
      // enqueue-before-push protocol makes any single read exact, and
      // reusing the routed snapshot keeps the admit decision consistent
      // with the worker it chose.
      uint64_t Est = GE.Cost.estimateMicros(BestTokens + Tokens);
      if (Est > 0 && Now + std::chrono::microseconds(Est) > *R.Deadline) {
        RejectedDeadline.fetch_add(1, std::memory_order_relaxed);
        refuse(R, Done, ResponseStatus::Rejected, "deadline_unmeetable");
        return ResponseStatus::Rejected;
      }
    }
  }

  // Breaker last, so requests doomed by admission never consume the
  // half-open probe slot.
  bool Probe = false;
  if (!GE.Breaker.admit(Now, Probe)) {
    BreakerRejected.fetch_add(1, std::memory_order_relaxed);
    refuse(R, Done, ResponseStatus::BreakerOpen, "");
    return ResponseStatus::BreakerOpen;
  }

  QueuedRequest QR;
  QR.Req = std::move(R);
  QR.Done = std::move(Done);
  QR.SubmitTime = Now;
  QR.BreakerProbe = Probe;

  bool Pushed = false;
  bool Draining = false;
  // Charge the load *before* the push and roll back on refusal, so no
  // concurrent reader can observe the worker's decrement ahead of this
  // increment (WorkerLoad's coherence protocol — the stale-backlog fix).
  Loads[Target]->onEnqueue(Tokens);
  {
    std::lock_guard<std::mutex> Lock(*ProducerLocks[Target]);
    // Re-check under the lock: drain() takes every producer lock after
    // clearing Accepting, so a push seen here is a push the worker will
    // serve before it exits.
    if (!Accepting.load(std::memory_order_acquire))
      Draining = true;
    else
      Pushed = Queues[Target]->tryPush(QR);
  }
  if (Pushed)
    return ResponseStatus::Done; // queued; terminal status via callback
  Loads[Target]->undoEnqueue(Tokens);
  // A refused admit abandons the half-open probe; report it as a failed
  // probe so the breaker re-opens with a fresh cooldown rather than
  // wedging in HalfOpen forever.
  if (Probe)
    GE.Breaker.onResult(/*Failure=*/true, /*IsProbe=*/true, Now);
  if (Draining) {
    refuse(QR.Req, QR.Done, ResponseStatus::Rejected, "not_accepting");
    return ResponseStatus::Rejected;
  }
  RejectedQueueFull.fetch_add(1, std::memory_order_relaxed);
  refuse(QR.Req, QR.Done, ResponseStatus::Rejected, "queue_full");
  return ResponseStatus::Rejected;
}

void ParseService::workerMain(unsigned WorkerIdx) {
#if defined(__linux__)
  if (Opts.PinWorkers) {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    unsigned N = std::max(1u, std::thread::hardware_concurrency());
    CPU_SET(WorkerIdx % N, &Set);
    if (pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set) != 0)
      PinFailures.fetch_add(1, std::memory_order_relaxed);
  }
#endif
  if (Tracers[WorkerIdx])
    Tracers[WorkerIdx]->Thread = WorkerIdx;

  WorkerState WS;
  WS.Index = WorkerIdx;
  WS.DeathsFired.assign(Opts.Chaos ? Opts.Chaos->Deaths.size() : 0, 0);
  // Lives loop: a true return is a chaos death; respawn with fresh
  // serving state (WS's per-life fields are reset at the top of
  // workerLife) until drain ends a life cleanly.
  while (workerLife(WorkerIdx, WS))
    Respawns.fetch_add(1, std::memory_order_relaxed);
}

bool ParseService::workerLife(unsigned WorkerIdx, WorkerState &WS) {
  // Per-life serving state: fresh fault injector (occurrence counts reset
  // — the plan replays against the new life), fresh arena, cold caches,
  // fresh backoff stream.
  std::optional<robust::FaultInjector> Injector;
  std::optional<robust::ScopedFaultInjector> FaultScope;
  if (Opts.Faults) {
    Injector.emplace(*Opts.Faults);
    FaultScope.emplace(*Injector);
  }
  WS.Locals.clear();
  WS.Locals.resize(Grammars.size());
  if (Opts.Parse.Alloc == adt::AllocBackend::Arena)
    WS.Arena.emplace();
  WS.Backoff.emplace(Opts.Retry,
                     Opts.RetrySeed ^
                         (0x9E3779B97F4A7C15ull * (WorkerIdx + 1)));

  SpscQueue<QueuedRequest> &Q = *Queues[WorkerIdx];
  obs::MetricsRegistry *Reg =
      Opts.CollectMetrics ? &Registries[WorkerIdx] : nullptr;
  uint64_t CompletedThisLife = 0;
  unsigned IdleRounds = 0;

  for (;;) {
    QueuedRequest QR;
    if (!Q.tryPop(QR)) {
      // Exit when drain has begun and the channel is dry: drain()'s
      // producer barrier guarantees no push lands after Stopping is set.
      if (Stopping.load(std::memory_order_acquire) && Q.empty())
        break;
      // Idle escalation: spin briefly (a request may be microseconds
      // away), then yield, then sleep — idle workers must not starve the
      // submitters' cores.
      ++IdleRounds;
      if (IdleRounds > 4096)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      else if (IdleRounds > 64)
        std::this_thread::yield();
      continue;
    }
    IdleRounds = 0;
    ++WS.LifetimeRequests;

    // Chaos stall arms: modelled as the worker being descheduled before
    // taking this request. Indexed by lifetime request count so a stall
    // scheduled past a death still fires in a later life.
    if (Opts.Chaos)
      for (const ServiceChaosPlan::StallArm &S : Opts.Chaos->Stalls)
        if (S.Worker == WorkerIdx && S.AtRequest == WS.LifetimeRequests &&
            S.StallMicros > 0) {
          if (Reg)
            Reg->add("service.chaos.stalls");
          std::this_thread::sleep_for(
              std::chrono::microseconds(S.StallMicros));
        }

    uint64_t Tokens = QR.Req.Input ? QR.Req.Input->size() : 0;
    Loads[WorkerIdx]->onDequeue(Tokens);
    Loads[WorkerIdx]->ActiveTokens.store(Tokens, std::memory_order_relaxed);
    if (Reg)
      Reg->record("service.queue_depth", Q.size());
    processRequest(WS, std::move(QR));
    ++CompletedThisLife;

    // Chaos death arms: die at a clean request boundary — the response
    // above was delivered, the queue is untouched, so no request is lost
    // or doubled; only this life's warmth dies with it.
    if (Opts.Chaos)
      for (size_t A = 0; A < Opts.Chaos->Deaths.size(); ++A) {
        const ServiceChaosPlan::DeathArm &D = Opts.Chaos->Deaths[A];
        if (D.Worker == WorkerIdx && D.AfterRequests == CompletedThisLife &&
            WS.DeathsFired[A] < D.MaxDeaths) {
          ++WS.DeathsFired[A];
          if (Reg)
            Reg->add("service.chaos.deaths");
          return true; // respawn
        }
      }
  }

  // Drain exit: publish final warm caches so the next service generation
  // (or a snapshot save) sees this life's warmth.
  if (Opts.ShareCache) {
    obs::RingBufferTracer *Trace = Tracers[WorkerIdx].get();
    if (Trace)
      Trace->Word = UINT32_MAX;
    for (size_t G = 0; G < Grammars.size(); ++G)
      if (WS.Locals[G].Cache)
        Grammars[G]->Shared.publish(*WS.Locals[G].Cache, Trace);
  }
  return false;
}

void ParseService::processRequest(WorkerState &WS, QueuedRequest &&QR) {
  GrammarEntry &GE = *Grammars[QR.Req.GrammarId];
  obs::MetricsRegistry *Reg =
      Opts.CollectMetrics ? &Registries[WS.Index] : nullptr;
  obs::RingBufferTracer *Trace = Tracers[WS.Index].get();
  Clock::time_point StartTime = Clock::now();

  Response Resp;
  Resp.Id = QR.Req.Id;
  Resp.GrammarId = QR.Req.GrammarId;
  Resp.QueueWaitMicros = microsBetween(QR.SubmitTime, StartTime);
  if (Reg)
    Reg->record("service.queue_wait_us", Resp.QueueWaitMicros);

  // Expired in the queue: the deadline passed before we could start.
  // No machine runs; an abandoned probe counts as a failed probe.
  if (QR.Req.Deadline && StartTime >= *QR.Req.Deadline) {
    Resp.Status = ResponseStatus::Expired;
    Resp.LatencyMicros = microsBetween(QR.SubmitTime, Clock::now());
    if (Reg) {
      Reg->add("service.expired");
      Reg->record("service.latency_us", Resp.LatencyMicros);
    }
    if (QR.BreakerProbe)
      GE.Breaker.onResult(/*Failure=*/true, /*IsProbe=*/true, StartTime);
    Loads[WS.Index]->ActiveTokens.store(0, std::memory_order_relaxed);
    if (QR.Done)
      QR.Done(std::move(Resp));
    return;
  }

  if (Trace)
    Trace->Word = static_cast<uint32_t>(QR.Req.Id);

  // The worker owns the sinks and the scratch arena; any caller-supplied
  // ones in the base options are overridden (they are not thread-safe
  // here). An accepted response's tree co-owns its own result arena, so
  // the caller may hold it on any thread.
  ParseOptions Parse = Opts.Parse;
  Parse.Trace = Trace;
  Parse.Metrics = Reg;
  Parse.Faults = nullptr; // the life-scoped injector governs
  if (Parse.Alloc == adt::AllocBackend::Arena)
    Parse.AllocArena = &*WS.Arena;

  WorkerState::LocalGrammar &LG = WS.Locals[QR.Req.GrammarId];
  if (Opts.ShareCache && !LG.Cache)
    LG.Cache.emplace(*GE.Shared.snapshot());
  SllCache *Cache = Opts.ShareCache ? &*LG.Cache : nullptr;

  // Parse with in-place retries on transient failure. Each attempt's
  // wall budget is tightened to the time left before the deadline, so an
  // admitted request can never hold the worker past its usefulness.
  uint32_t Attempt = 0;
  bool Downgraded = false;
  Machine::Stats Stats;
  std::optional<ParseResult> Final;
  Clock::time_point AttemptStart = StartTime;
  Clock::time_point AttemptEnd = StartTime;
  for (;;) {
    AttemptStart = Clock::now();
    robust::ParseBudget Budget = Opts.Parse.Budget;
    if (QR.Req.Deadline) {
      uint64_t Remaining = microsBetween(AttemptStart, *QR.Req.Deadline);
      Budget.MaxWallMicros = std::min(Budget.MaxWallMicros, Remaining);
    }
    Parse.Budget = Budget;
    if (Opts.DegradeOnError) {
      robust::RobustOutcome Out =
          robust::parseRobust(GE.G, *GE.Tables, GE.Start, *QR.Req.Input,
                              Parse, Cache, &Stats);
      Downgraded = Downgraded || Out.Downgraded;
      Final.emplace(std::move(Out.Result));
    } else {
      Machine M(GE.G, *GE.Tables, GE.Start, *QR.Req.Input, Parse, Cache);
      Final.emplace(M.run());
      Stats.accumulate(M.stats());
    }
    AttemptEnd = Clock::now();
    if (Final->kind() != ParseResult::Kind::Error)
      break;
    if (Attempt >= WS.Backoff->maxRetries())
      break;
    uint64_t Delay = WS.Backoff->delayMicros(Attempt);
    if (QR.Req.Deadline &&
        AttemptEnd + std::chrono::microseconds(Delay) >= *QR.Req.Deadline)
      break; // no time left to retry; deliver the error we have
    if (Reg)
      Reg->add("service.retries");
    std::this_thread::sleep_for(std::chrono::microseconds(Delay));
    ++Attempt;
  }

  // Cost model learns from clean full parses only (errors and budget
  // cutoffs would teach it truncated times).
  uint64_t Tokens = QR.Req.Input->size();
  ParseResult::Kind Kind = Final->kind();
  if (Kind == ParseResult::Kind::Unique || Kind == ParseResult::Kind::Ambig ||
      Kind == ParseResult::Kind::Reject)
    GE.Cost.observe(Tokens,
                    static_cast<uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            AttemptEnd - AttemptStart)
                            .count()));

  // Breaker verdict: only a final Error (after retries and downgrade) is
  // a grammar-health failure; Reject and BudgetExceeded are correct
  // answers about the input and the request's own envelope.
  GE.Breaker.onResult(Kind == ParseResult::Kind::Error, QR.BreakerProbe,
                      AttemptEnd);

  Resp.Status = ResponseStatus::Done;
  Resp.Result.emplace(std::move(*Final));
  Resp.Downgraded = Downgraded;
  Resp.Retries = Attempt;
  Resp.Stats = Stats;
  Resp.LatencyMicros = microsBetween(QR.SubmitTime, Clock::now());
  if (Reg) {
    Reg->add("service.done");
    if (Downgraded)
      Reg->add("service.downgrades");
    Reg->record("service.latency_us", Resp.LatencyMicros);
  }
  // The parse is over: stop routing against it before the response goes
  // out, so a submitter the response wakes sees this worker as free.
  Loads[WS.Index]->ActiveTokens.store(0, std::memory_order_relaxed);
  if (QR.Done)
    QR.Done(std::move(Resp));

  // Cache exchange after the response is out the door (publish latency
  // is the service's, not the request's): publish every PublishInterval
  // parses of this grammar, then adopt a strictly warmer snapshot keeping
  // our own activity counters.
  if (Opts.ShareCache && ++LG.SincePublish >= Opts.PublishInterval) {
    LG.SincePublish = 0;
    if (Trace)
      Trace->Word = UINT32_MAX; // cache exchange, not a request's parse
    GE.Shared.publish(*LG.Cache, Trace);
    std::shared_ptr<const SllCache> Snap = GE.Shared.snapshot();
    uint64_t SnapCoverage = Snap->numStates() + Snap->numTransitions();
    if (SnapCoverage >
            LG.Cache->numStates() + LG.Cache->numTransitions() &&
        !robust::faultFires(robust::FaultSite::SharedCacheAdopt)) {
      uint64_t OwnHits = LG.Cache->Hits, OwnMisses = LG.Cache->Misses;
      *LG.Cache = *Snap;
      LG.Cache->Hits = OwnHits;
      LG.Cache->Misses = OwnMisses;
      if (Trace)
        Trace->emit(obs::EventKind::CacheAdopt, 0, 0, SnapCoverage);
    }
  }
}

void ParseService::drain() {
  if (Drained)
    return;
  if (!Started) {
    Drained = true;
    return;
  }
  Accepting.store(false, std::memory_order_release);
  // Producer barrier: every submitter that saw Accepting before the store
  // holds (or will briefly hold) a producer lock around its push; taking
  // each lock once guarantees no push lands after Stopping is set.
  for (std::unique_ptr<std::mutex> &L : ProducerLocks) {
    std::lock_guard<std::mutex> Lock(*L);
  }
  Stopping.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
  Threads.clear();

  if (Opts.CollectMetrics) {
    for (const obs::MetricsRegistry &Reg : Registries)
      Report.Metrics.merge(Reg);
    Report.Metrics.add("service.submitted",
                       Submitted.load(std::memory_order_relaxed));
    Report.Metrics.add("service.rejected.queue_full",
                       RejectedQueueFull.load(std::memory_order_relaxed));
    Report.Metrics.add("service.rejected.deadline",
                       RejectedDeadline.load(std::memory_order_relaxed));
    Report.Metrics.add("service.shed",
                       ShedCount.load(std::memory_order_relaxed));
    Report.Metrics.add("service.rejected.breaker",
                       BreakerRejected.load(std::memory_order_relaxed));
    Report.Metrics.add("service.pin_failures",
                       PinFailures.load(std::memory_order_relaxed));
    Report.Metrics.add("service.respawns",
                       Respawns.load(std::memory_order_relaxed));
    uint64_t Trips = 0;
    for (const std::unique_ptr<GrammarEntry> &E : Grammars)
      Trips += E->Breaker.trips();
    Report.Metrics.add("service.breaker.trips", Trips);
  }
  if (Opts.CollectTrace) {
    for (const std::unique_ptr<obs::RingBufferTracer> &T : Tracers) {
      if (!T)
        continue;
      std::vector<obs::TraceEvent> Events = T->events();
      Report.Trace.insert(Report.Trace.end(), Events.begin(), Events.end());
      Report.TraceDropped += T->dropped();
    }
    // Canonical order: by request id (each request's events are already
    // contiguous and in emission order, since exactly one worker serves
    // it), cache-exchange events (Word == UINT32_MAX) at the end.
    std::stable_sort(Report.Trace.begin(), Report.Trace.end(),
                     [](const obs::TraceEvent &X, const obs::TraceEvent &Y) {
                       return X.Word < Y.Word;
                     });
  }
  Drained = true;
}

size_t ParseService::sharedCacheStates(uint32_t GrammarId) const {
  if (GrammarId >= Grammars.size())
    return 0;
  if (!Opts.ShareCache)
    return 0;
  return Grammars[GrammarId]->Shared.snapshot()->numStates();
}

const CircuitBreaker &ParseService::breaker(uint32_t GrammarId) const {
  assert(GrammarId < Grammars.size());
  return Grammars[GrammarId]->Breaker;
}
