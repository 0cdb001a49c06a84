//===- workload/BatchParser.cpp - Multi-threaded corpus parsing -------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "workload/BatchParser.h"

#include "service/Service.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

using namespace costar;
using namespace costar::workload;

namespace {

/// Classifies the per-word results into the batch counters and builds the
/// quarantine list (in corpus order, since \p Buf is walked in order).
void classifyResults(std::vector<std::optional<ParseResult>> &Buf,
                     BatchResult &R) {
  R.Results.reserve(Buf.size());
  for (size_t I = 0; I < Buf.size(); ++I) {
    std::optional<ParseResult> &Res = Buf[I];
    assert(Res && "batch worker skipped a word");
    switch (Res->kind()) {
    case ParseResult::Kind::Unique:
    case ParseResult::Kind::Ambig:
      ++R.Accepted;
      break;
    case ParseResult::Kind::Reject:
      ++R.Rejected;
      break;
    case ParseResult::Kind::Error:
      ++R.Errors;
      break;
    case ParseResult::Kind::BudgetExceeded:
      ++R.BudgetExceeded;
      R.Quarantined.push_back(
          BatchResult::QuarantineEntry{I, Res->budget().Reason});
      break;
    }
    R.Results.push_back(std::move(*Res));
  }
}

/// The batch on the parse-service runtime: one grammar, channels sized to
/// the corpus, every service refusal mechanism disabled — the runtime
/// contributes its worker model (SPSC channels, per-life fault injectors,
/// publish/adopt cache exchange, graceful drain), the semantics stay
/// exactly BatchParser's.
BatchResult runService(const Grammar &G, const GrammarAnalysis &Analysis,
                       const PredictionTables &Tables, NonterminalId Start,
                       const std::vector<Word> &Corpus,
                       const BatchOptions &Opts, unsigned Threads) {
  service::ServiceOptions SO;
  SO.Workers = Threads;
  // The flat pool never pinned; batch runs share machines with other
  // tests, so the batch mapping does not pin either.
  SO.PinWorkers = false;
  SO.QueueCapacity = std::max<size_t>(Corpus.size(), 2);
  SO.Parse = Opts.Parse;
  SO.ShareCache = Opts.ShareCache;
  SO.PublishInterval = Opts.PublishInterval;
  SO.DegradeOnError = Opts.DegradeOnError;
  SO.Retry.MaxRetries = 0; // batch parity: an Error is final, no retries
  SO.BreakerThreshold = 0;
  SO.AdmitByDeadline = false;
  SO.ShedBestEffortAt = 2.0; // shedding off: every word must be served
  SO.ShedBatchAt = 2.0;
  SO.CollectMetrics = Opts.CollectMetrics;
  SO.CollectTrace = Opts.CollectTrace;
  SO.TraceCapacityPerThread = Opts.TraceCapacityPerThread;
  SO.Faults = Opts.Faults;

  service::ParseService S(SO);
  uint32_t Gid = S.addGrammar(G, Start, &Analysis, &Tables);
  S.start();

  std::vector<std::optional<ParseResult>> Buf(Corpus.size());
  std::vector<Machine::Stats> PerWord(Corpus.size());
  std::vector<uint8_t> Downgraded(Corpus.size(), 0);
  // Keep at most two words per worker in flight. The router sends each
  // word to the worker with the least outstanding work, so a bounded
  // window hands out words as workers free up, like the flat pool's
  // shared cursor; queueing the whole corpus up front would fix the split
  // by token count alone, and one cold-cache word can cost many times its
  // share.
  const size_t Window = 2 * size_t(Threads);
  std::mutex InFlightLock;
  std::condition_variable Freed;
  size_t InFlight = 0;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    {
      std::unique_lock<std::mutex> Lock(InFlightLock);
      Freed.wait(Lock, [&] { return InFlight < Window; });
      ++InFlight;
    }
    service::Request Req;
    Req.Id = I;
    Req.GrammarId = Gid;
    Req.Input = &Corpus[I];
    Req.Class = service::Priority::Batch;
    service::ResponseStatus St = S.submit(
        std::move(Req),
        // Workers write disjoint indices; drain()'s join orders them
        // before the reads below.
        [&, I](service::Response &&Resp) {
          if (Resp.Result)
            Buf[I] = std::move(*Resp.Result);
          PerWord[I] = Resp.Stats;
          Downgraded[I] = Resp.Downgraded ? 1 : 0;
          {
            std::lock_guard<std::mutex> Lock(InFlightLock);
            --InFlight;
          }
          Freed.notify_one();
        });
    assert(St == service::ResponseStatus::Done && "batch submit refused");
    (void)St;
  }
  S.drain();

  BatchResult R;
  classifyResults(Buf, R);
  for (const Machine::Stats &St : PerWord)
    R.Aggregate.accumulate(St);
  for (uint8_t D : Downgraded)
    R.Downgraded += D;
  if (Opts.ShareCache)
    R.SharedCacheStates = S.sharedCacheStates(Gid);
  R.Trace = S.report().Trace;
  R.TraceDropped = S.report().TraceDropped;
  if (Opts.CollectMetrics)
    R.Metrics.merge(S.report().Metrics);
  return R;
}

/// The legacy flat thread pool, kept verbatim as the differential
/// baseline the service-path batch is tested (and benched) against.
BatchResult runFlatPool(const Grammar &G, const PredictionTables &Tables,
                        NonterminalId Start, const std::vector<Word> &Corpus,
                        const BatchOptions &Opts, unsigned Threads) {
  SharedSllCache Shared(Opts.Parse.Backend);
  std::atomic<size_t> NextWord{0};
  std::vector<std::optional<ParseResult>> Buf(Corpus.size());
  std::vector<Machine::Stats> PerThread(Threads);
  // Per-thread observability sinks: no cross-thread writes during the
  // parse, merged after the join.
  std::vector<std::unique_ptr<obs::RingBufferTracer>> Tracers(Threads);
  std::vector<obs::MetricsRegistry> Registries(
      Opts.CollectMetrics ? Threads : 0);
  if (Opts.CollectTrace)
    for (unsigned T = 0; T < Threads; ++T)
      Tracers[T] =
          std::make_unique<obs::RingBufferTracer>(Opts.TraceCapacityPerThread);

  std::vector<uint64_t> Downgrades(Threads, 0);

  auto Worker = [&](unsigned ThreadIdx) {
    Machine::Stats &Stats = PerThread[ThreadIdx];
    obs::RingBufferTracer *Trace = Tracers[ThreadIdx].get();
    if (Trace)
      Trace->Thread = ThreadIdx;
    // Deterministic fault injection: one injector per worker, installed
    // for the worker's whole lifetime so it also covers the publish/adopt
    // exchange sites between words.
    std::optional<robust::FaultInjector> Injector;
    std::optional<robust::ScopedFaultInjector> FaultScope;
    if (Opts.Faults) {
      Injector.emplace(*Opts.Faults);
      FaultScope.emplace(*Injector);
    }
    // The caller's sinks are not thread-safe; workers use only their own.
    ParseOptions Parse = Opts.Parse;
    Parse.Trace = Trace;
    Parse.Metrics = Opts.CollectMetrics ? &Registries[ThreadIdx] : nullptr;
    Parse.Faults = nullptr; // the worker-scope injector governs
    // Arenas are single-threaded; like the sinks above, any caller-supplied
    // arena is overridden with a worker-lifetime scratch arena whose slabs
    // warm up across the words this thread parses. The batch retains every
    // result until parseAll returns; each holds only its own result arena,
    // never the scratch.
    std::optional<adt::Arena> WorkerArena;
    if (Parse.Alloc == adt::AllocBackend::Arena) {
      WorkerArena.emplace();
      Parse.AllocArena = &*WorkerArena;
    }
    // Thread-local warm cache, seeded from the current shared snapshot
    // (whose counters are zero: snapshots carry structure, not activity).
    SllCache Local = *Shared.snapshot();
    uint32_t SincePublish = 0;
    for (;;) {
      size_t I = NextWord.fetch_add(1, std::memory_order_relaxed);
      if (I >= Corpus.size())
        break;
      if (Trace)
        Trace->Word = static_cast<uint32_t>(I);
      if (Opts.DegradeOnError) {
        robust::RobustOutcome Out = robust::parseRobust(
            G, Tables, Start, Corpus[I], Parse,
            Opts.ShareCache ? &Local : nullptr, &Stats);
        if (Out.Downgraded)
          ++Downgrades[ThreadIdx];
        Buf[I] = std::move(Out.Result);
      } else {
        Machine M(G, Tables, Start, Corpus[I], Parse,
                  Opts.ShareCache ? &Local : nullptr);
        Buf[I] = M.run();
        Stats.accumulate(M.stats());
      }
      if (Opts.ShareCache && ++SincePublish >= Opts.PublishInterval) {
        SincePublish = 0;
        if (Trace)
          Trace->Word = UINT32_MAX; // cache exchange, not a word's parse
        Shared.publish(Local, Trace);
        // Adopt a warmer snapshot if another worker published one,
        // keeping this thread's own activity counters: the adopted copy
        // brings DFA structure only, so the counters stay a consistent,
        // monotone record of this thread's lookups and the next Machine's
        // per-parse deltas read a baseline this thread actually produced.
        // Soft fault site: an injected SharedCacheAdopt fault skips this
        // one adoption; the worker keeps its own (correct) cache.
        std::shared_ptr<const SllCache> Snap = Shared.snapshot();
        uint64_t SnapCoverage = Snap->numStates() + Snap->numTransitions();
        if (SnapCoverage > Local.numStates() + Local.numTransitions() &&
            !robust::faultFires(robust::FaultSite::SharedCacheAdopt)) {
          uint64_t OwnHits = Local.Hits, OwnMisses = Local.Misses;
          Local = *Snap;
          Local.Hits = OwnHits;
          Local.Misses = OwnMisses;
          if (Trace)
            Trace->emit(obs::EventKind::CacheAdopt, 0, 0, SnapCoverage);
        }
      }
    }
    if (Opts.ShareCache) {
      if (Trace)
        Trace->Word = UINT32_MAX;
      Shared.publish(Local, Trace);
    }
  };

  if (Threads == 1) {
    Worker(0);
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(Threads);
    for (unsigned T = 0; T < Threads; ++T)
      Pool.emplace_back(Worker, T);
    for (std::thread &Th : Pool)
      Th.join();
  }

  BatchResult R;
  classifyResults(Buf, R);
  for (const Machine::Stats &S : PerThread)
    R.Aggregate.accumulate(S);
  for (uint64_t D : Downgrades)
    R.Downgraded += D;
  if (Opts.ShareCache)
    R.SharedCacheStates = Shared.snapshot()->numStates();

  if (Opts.CollectTrace) {
    for (const auto &T : Tracers) {
      std::vector<obs::TraceEvent> Events = T->events();
      R.Trace.insert(R.Trace.end(), Events.begin(), Events.end());
      R.TraceDropped += T->dropped();
    }
    // Canonical order: by word index (each word's events are already
    // contiguous and in emission order, since exactly one worker parses
    // it), with cache-exchange events (Word == UINT32_MAX) at the end.
    std::stable_sort(R.Trace.begin(), R.Trace.end(),
                     [](const obs::TraceEvent &X, const obs::TraceEvent &Y) {
                       return X.Word < Y.Word;
                     });
  }
  for (const obs::MetricsRegistry &Reg : Registries)
    R.Metrics.merge(Reg);
  return R;
}

} // namespace

BatchResult BatchParser::parseAll(const std::vector<Word> &Corpus,
                                  const BatchOptions &Opts) const {
  unsigned Threads = Opts.Threads;
  if (Threads == 0)
    Threads = std::max(1u, std::thread::hardware_concurrency());
  Threads = std::max(1u, std::min<unsigned>(
                             Threads, Corpus.empty() ? 1 : Corpus.size()));
  if (Opts.UseService)
    return runService(G, Analysis, Tables, Start, Corpus, Opts, Threads);
  return runFlatPool(G, Tables, Start, Corpus, Opts, Threads);
}

std::string BatchResult::summary() const {
  std::string S;
  S += "accepted=" + std::to_string(Accepted);
  S += " rejected=" + std::to_string(Rejected);
  S += " errors=" + std::to_string(Errors);
  S += " budget_exceeded=" + std::to_string(BudgetExceeded);
  S += " downgraded=" + std::to_string(Downgraded);
  S += " quarantined=" + std::to_string(Quarantined.size());
  if (!Quarantined.empty()) {
    // Deterministic regardless of the order workers finished in: list the
    // quarantined words sorted by corpus index.
    std::vector<QuarantineEntry> Sorted = Quarantined;
    std::stable_sort(Sorted.begin(), Sorted.end(),
                     [](const QuarantineEntry &X, const QuarantineEntry &Y) {
                       return X.WordIndex < Y.WordIndex;
                     });
    S += " [";
    for (size_t I = 0; I < Sorted.size(); ++I) {
      if (I)
        S += ",";
      S += std::to_string(Sorted[I].WordIndex);
      S += ":";
      S += robust::budgetReasonName(Sorted[I].Reason);
    }
    S += "]";
  }
  return S;
}
