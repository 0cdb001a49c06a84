//===- core/Machine.h - The CoStar stack machine ---------------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stack machine at the heart of CoStar (Section 3). The machine state
/// holds the fused prefix/suffix frame stack, the remaining tokens, the
/// visited-nonterminal set for dynamic left-recursion detection, the
/// uniqueness flag, and the SLL prediction cache. step() performs a single
/// consume / push / return operation (Section 3.3); run() is multistep,
/// iterating step() to a final result.
///
/// In Coq, multistep's recursion is justified by the accessibility of the
/// well-founded measure of Section 4. C++ needs no such justification to
/// compile, so the measure instead becomes a runtime specification: with
/// ParseOptions::CheckInvariants set, run() recomputes meas before every
/// step and fails loudly if a step ever fails to decrease it — Lemma 4.2 as
/// an executable check.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_CORE_MACHINE_H
#define COSTAR_CORE_MACHINE_H

#include "adt/Arena.h"
#include "core/Frame.h"
#include "core/ParseResult.h"
#include "core/Prediction.h"

#include <memory>
#include <optional>

namespace costar {

namespace obs {
class Tracer;
class MetricsRegistry;
} // namespace obs

/// Knobs for a parse run.
struct ParseOptions {
  enum class PredictionMode {
    /// SLL with DFA caching, failing over to LL on SLL ambiguity (the
    /// paper's adaptivePredict).
    Adaptive,
    /// Always predict in LL mode (ablation baseline).
    LlOnly,
  };
  PredictionMode Mode = PredictionMode::Adaptive;

  /// Which index structures back the SLL DFA cache. Hashed is the fast
  /// default; AvlPaperFaithful reproduces the FMapAVL cost profile of the
  /// Coq extraction (Section 6.1) and serves as the ablation baseline.
  /// Parse results are bit-identical across backends.
  CacheBackend Backend = CacheBackend::Hashed;

  /// Check machine-state invariants and the Lemma 4.2 measure decrease
  /// before every step (slow; for tests and debugging).
  bool CheckInvariants = false;

  /// Share the SLL DFA cache across parse() calls of one Parser. The paper
  /// notes CoStar "does not currently offer a way to reuse a cache across
  /// multiple inputs" (Section 6.2); this implements that extension and is
  /// off by default to match the paper's benchmark configuration.
  bool ReuseCache = false;

  /// Which allocation substrate backs the parse's hot allocation sites
  /// (tree nodes, prediction sim-stacks, visited-set nodes, frame
  /// forests). Arena (the default) bump-allocates them: sim stacks and
  /// visited sets in a scratch arena that the next run rewinds, tree nodes
  /// and forests in a result arena that the accepted result co-owns
  /// (adt/Arena.h); SharedPtrPaperFaithful makes every node an owning heap
  /// allocation, standing in for the extracted OCaml implementation's GC
  /// (the ablation baseline). Results are bit-identical across backends
  /// (AllocEquivalenceTest); only throughput and bytes-per-token differ.
  adt::AllocBackend Alloc = adt::AllocBackend::Arena;

  /// The scratch arena to use when Alloc == Arena. When null the machine
  /// creates a private one; Parser installs its own persistent arena here
  /// so runs reuse warmed slabs across parse() calls. The arena also keeps
  /// the result arena of its last parse and reuses it once no result holds
  /// it and it fits the next input (adt::Arena::nextResultArena). Arenas
  /// are single-threaded: never share one across concurrently running
  /// parses (service workers override this field with a per-worker arena).
  adt::Arena *AllocArena = nullptr;

  /// Per-parse resource budget (robust/Budget.h): machine-step cap,
  /// wall-clock deadline, allocation cap, cooperative cancellation.
  /// Exceeding any limit yields the structured
  /// ParseResult::Kind::BudgetExceeded outcome with partial progress —
  /// never an exception, never a torn stack. The default budget is
  /// unlimited and costs one branch per step (bench_budget_overhead gates
  /// armed-but-unlimited configurations below 3%).
  robust::ParseBudget Budget;

  /// Deterministic fault injection (robust/FaultInjection.h): when
  /// non-null, Machine::run() installs this injector on the running thread
  /// so the named infrastructure sites (cache probe/insert, frame/tree
  /// allocation, trace write, shared-cache exchange) consult its FaultPlan.
  /// Abort-class faults surface as ParseResult::Error with
  /// ParseErrorKind::FaultInjected; robust::parseRobust retries those once
  /// on the paper-faithful backend. Not thread-safe: one injector per
  /// thread (BatchParser ignores this field and uses BatchOptions::Faults).
  robust::FaultInjector *Faults = nullptr;

  /// Structured event tracer (obs/Trace.h): prediction, cache, and stack
  /// events stream to this sink during the parse. nullptr (the default)
  /// disables tracing entirely; an obs::NullTracer keeps the plumbing
  /// live but discards events (bench_trace_overhead pins the cost of
  /// either configuration below 3%). Traces are deterministic: two runs
  /// of the same (grammar, word, options) emit identical event sequences.
  obs::Tracer *Trace = nullptr;

  /// Per-parse metrics sink (obs/Metrics.h): at the end of run(), the
  /// machine publishes its per-parse deltas (steps, consumes, prediction
  /// and cache activity, result kind) as named counters and histograms.
  /// Supersedes hand-aggregating Machine::Stats. Not thread-safe: use one
  /// registry per thread and MetricsRegistry::merge (BatchParser does).
  obs::MetricsRegistry *Metrics = nullptr;
};

/// One CoStar stack machine run over a fixed grammar, start symbol, and
/// input word. Non-copyable: frames point into machine-owned storage.
class Machine {
public:
  struct Stats {
    uint64_t Steps = 0;
    uint64_t Consumes = 0;
    uint64_t Pushes = 0;
    uint64_t Returns = 0;
    PredictionStats Pred;
    /// SLL cache activity attributable to *this* run. With ReuseCache (or
    /// a shared cache) the cache's own Hits/Misses accumulate across
    /// parses; these are per-run deltas, so a warm parse shows up as
    /// hits-without-misses rather than vanishing into the aggregate.
    uint64_t CacheHits = 0;
    uint64_t CacheMisses = 0;
    /// DFA states this run added to the cache (0 on a fully warm cache).
    uint64_t CacheStatesAdded = 0;
    /// Nodes (trees, sim-stack frames) allocated by this run, identical
    /// across allocation backends (counted at the creation helpers, so
    /// the heap copies of configs a long-lived cache keeps are invisible).
    uint64_t AllocNodes = 0;
    /// Bytes allocated by this run on the parse's allocation substrate.
    /// Deterministic within a backend, but backend-*dependent*: the arena
    /// counts every bump-allocated byte (including visited-set path copies
    /// and forest buffers), the shared_ptr baseline estimates node +
    /// control-block bytes. Cross-backend byte comparisons are substrate
    /// comparisons, not parse comparisons.
    uint64_t AllocBytes = 0;

    /// Accumulates \p Other into this (BatchParser aggregation).
    void accumulate(const Stats &Other) {
      Steps += Other.Steps;
      Consumes += Other.Consumes;
      Pushes += Other.Pushes;
      Returns += Other.Returns;
      Pred.Predictions += Other.Pred.Predictions;
      Pred.SllPredictions += Other.Pred.SllPredictions;
      Pred.Failovers += Other.Pred.Failovers;
      CacheHits += Other.CacheHits;
      CacheMisses += Other.CacheMisses;
      CacheStatesAdded += Other.CacheStatesAdded;
      AllocNodes += Other.AllocNodes;
      AllocBytes += Other.AllocBytes;
    }
  };

  /// \p SharedCache, when non-null, is used (and warmed) instead of a
  /// machine-local cache.
  Machine(const Grammar &G, const PredictionTables &Tables,
          NonterminalId Start, const Word &Input, const ParseOptions &Opts,
          SllCache *SharedCache = nullptr);

  ~Machine();

  Machine(const Machine &) = delete;
  Machine &operator=(const Machine &) = delete;

  /// Performs one machine operation. \returns a final result, or nullopt to
  /// continue (ContS in the paper's step-result grammar).
  std::optional<ParseResult> step() {
    std::optional<ParseResult> Result = stepImpl();
    // Keep the per-run cache deltas current after every step, so stats()
    // is accurate whether the caller drives step() directly or via run().
    MachineStats.CacheHits = Cache->Hits - CacheHitsAtStart;
    MachineStats.CacheMisses = Cache->Misses - CacheMissesAtStart;
    MachineStats.CacheStatesAdded = Cache->numStates() - CacheStatesAtStart;
    return Result;
  }

  /// multistep: iterates step() to completion. Call it at most once per
  /// machine: it opens the machine's one arena epoch. An accepted result's
  /// tree handle co-owns the run's result arena, so it stays valid after
  /// the machine, its scratch arena, and any later run are gone.
  ParseResult run();

  // Introspection (tests, invariant checkers, trace-based property tests).
  const std::vector<Frame> &stack() const { return Stack; }
  const VisitedSet &visited() const { return Visited; }
  size_t tokenPos() const { return Pos; }
  size_t tokensRemaining() const { return Input.size() - Pos; }
  bool uniqueFlag() const { return UniqueFlag; }
  const Stats &stats() const { return MachineStats; }
  /// The SLL cache this machine predicts with. A machine-local cache keeps
  /// arena sim stacks, so read it before the arena is next rewound (the
  /// next run() on the same arena).
  const SllCache &cache() const { return *Cache; }

private:
  const Grammar &G;
  const PredictionTables &Tables;
  /// The machine-private scratch arena, created when Opts.Alloc == Arena
  /// and no external arena was supplied.
  std::unique_ptr<adt::Arena> OwnedArena;
  /// This run's result arena (null until run() opens the epoch). Declared
  /// before Stack: frames hold forest buffers in it.
  std::shared_ptr<adt::Arena> Results;
  /// Storage for the bottom frame's symbol sequence (just the start
  /// symbol); must outlive the stack.
  std::vector<Symbol> StartSyms;
  std::vector<Frame> Stack;
  const Word &Input;
  size_t Pos = 0;
  VisitedSet Visited;
  bool UniqueFlag = true;
  /// The machine-local cache, used when no shared cache is supplied. It
  /// is epoch-local (SllCache::setEpochLocal): declared after OwnedArena
  /// so it is destroyed first, and run() opens at most one epoch per
  /// machine, so no rewind can happen while it is alive.
  SllCache OwnedCache;
  SllCache *Cache;
  ParseOptions Opts;
  Stats MachineStats;
  /// Enforces Opts.Budget; armed at the top of run().
  robust::BudgetTracker Budget;
  /// Cache counter values at construction, for the per-run deltas.
  uint64_t CacheHitsAtStart = 0;
  uint64_t CacheMissesAtStart = 0;
  uint64_t CacheStatesAtStart = 0;

  std::optional<ParseResult> stepImpl();
  ParseResult runLoop();
  /// Builds the structured BudgetExceeded outcome from the current machine
  /// state (partial progress: steps, tokens, innermost nonterminal, cache
  /// activity).
  ParseResult budgetResult(robust::BudgetReason Reason) const;
  void publishMetrics(const ParseResult &Result) const;
};

/// Structural invariant checker used when ParseOptions::CheckInvariants is
/// set and by the invariant-preservation property tests. Covers the
/// executable content of StacksWf_I (Figure 4) and the visited-set
/// invariant behind Lemma 5.10, in the exact form LL prediction relies on:
/// the visited set is the left-hand sides of the top |Visited| frames.
///
/// \returns an empty string if all invariants hold, otherwise a description
/// of the first violation.
std::string checkMachineInvariants(const Grammar &G,
                                   std::span<const Frame> Stack,
                                   const VisitedSet &Visited);

} // namespace costar

#endif // COSTAR_CORE_MACHINE_H
