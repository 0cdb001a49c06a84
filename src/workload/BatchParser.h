//===- workload/BatchParser.h - Multi-threaded corpus parsing --*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses a corpus of pre-lexed words over one grammar across N threads
/// with a shared warm SLL DFA cache (core/SharedSllCache.h). The static
/// per-grammar work (analysis, SLL stable-return tables) is done once;
/// the words run on the parse-service runtime (service/Service.h), whose
/// workers parse against thread-local cache copies and periodically
/// publish/adopt warmer caches, so DFA construction is amortized across
/// the whole corpus instead of per file (the Section 6.2 extension,
/// scaled out).
///
/// Results are deterministic: each word's ParseResult is independent of
/// thread count and cache warmth (the warm-vs-cold equivalence property),
/// so a 4-thread batch returns bit-identical results to a 1-thread batch.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_WORKLOAD_BATCHPARSER_H
#define COSTAR_WORKLOAD_BATCHPARSER_H

#include "core/Parser.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "robust/Degradation.h"
#include "robust/FaultInjection.h"

#include <string>
#include <vector>

namespace costar {
namespace workload {

struct BatchOptions {
  /// Worker threads; 0 means one per hardware thread.
  unsigned Threads = 1;
  /// Per-parse knobs (prediction mode, cache backend, ...). The
  /// ReuseCache flag is ignored here: batch cache sharing is governed by
  /// ShareCache below. The Trace and Metrics sinks are also ignored
  /// (they are not thread-safe); use CollectTrace / CollectMetrics, which
  /// give every worker its own buffer and merge at the end.
  ParseOptions Parse;
  /// Share one warm cache across all words and threads. When false every
  /// word parses against a fresh cache (the paper's per-input baseline).
  bool ShareCache = true;
  /// Words a worker parses between publish/adopt exchanges with the
  /// shared cache.
  uint32_t PublishInterval = 8;
  /// Record parse events into per-thread ring buffers and merge them into
  /// BatchResult::Trace, ordered by corpus word index (each word's events
  /// are contiguous and stamped with the worker's thread index).
  bool CollectTrace = false;
  /// Per-thread ring capacity when CollectTrace is set; events beyond it
  /// wrap (BatchResult::TraceDropped counts the loss).
  size_t TraceCapacityPerThread = 1u << 22;
  /// Publish per-parse metrics into per-thread registries and merge them
  /// into BatchResult::Metrics.
  bool CollectMetrics = false;
  /// Route every word through robust::parseRobust: a Hashed-backend word
  /// that fails with a retryable error is retried once on the
  /// paper-faithful AVL backend and recorded as a downgrade instead of an
  /// error. Words that neither fault nor trip a budget are unaffected
  /// (their results stay bit-identical to a plain batch).
  bool DegradeOnError = true;
  /// Deterministic fault plan, instantiated as one robust::FaultInjector
  /// per worker thread and installed for the worker's whole lifetime (so
  /// it also covers the publish/adopt cache-exchange sites between
  /// words). ParseOptions::Faults inside Parse is ignored here.
  const robust::FaultPlan *Faults = nullptr;
};

struct BatchResult {
  /// A word whose parse a resource budget cut off, set aside for the
  /// caller to retry with a bigger budget, bill, or drop — the rest of
  /// the batch is unaffected.
  struct QuarantineEntry {
    size_t WordIndex = 0;
    robust::BudgetReason Reason = robust::BudgetReason::Steps;
  };

  /// One result per input word, in corpus order.
  std::vector<ParseResult> Results;
  /// Machine statistics summed over all words.
  Machine::Stats Aggregate;
  size_t Accepted = 0;
  size_t Rejected = 0;
  size_t Errors = 0;
  /// Words cut off by their per-word budget (also listed in Quarantined).
  size_t BudgetExceeded = 0;
  /// Words that recovered (or finally failed) via the AVL downgrade path.
  size_t Downgraded = 0;
  /// Budget-exceeded words, in corpus order.
  std::vector<QuarantineEntry> Quarantined;
  /// DFA states in the final shared snapshot (0 when ShareCache is off).
  size_t SharedCacheStates = 0;
  /// Merged event trace (CollectTrace): per-word parse events ordered by
  /// word index, then batch cache-exchange events (Word == UINT32_MAX).
  /// With ShareCache off, this equals the single-thread trace modulo the
  /// Thread stamps (cache warmth, and so hit/miss events, are per-word
  /// deterministic) — TraceDeterminismTest holds BatchParser to that.
  std::vector<obs::TraceEvent> Trace;
  /// Events lost to per-thread ring wrap-around (0 unless a worker
  /// overflowed TraceCapacityPerThread).
  uint64_t TraceDropped = 0;
  /// Merged metrics over all workers (CollectMetrics).
  obs::MetricsRegistry Metrics;

  /// One-line outcome summary ("accepted=37 rejected=2 ..."), for logs.
  std::string summary() const;
};

/// A reusable multi-threaded batch parser for one grammar and start
/// symbol.
class BatchParser {
  const Grammar &G;
  NonterminalId Start;
  GrammarAnalysis Analysis;
  PredictionTables Tables;

public:
  BatchParser(const Grammar &G, NonterminalId Start)
      : G(G), Start(Start), Analysis(G, Start), Tables(G, Analysis) {}

  /// Parses every word of \p Corpus, returning per-word results and
  /// aggregate statistics.
  BatchResult parseAll(const std::vector<Word> &Corpus,
                       const BatchOptions &Opts = {}) const;

  const Grammar &grammar() const { return G; }
  const PredictionTables &tables() const { return Tables; }
};

} // namespace workload
} // namespace costar

#endif // COSTAR_WORKLOAD_BATCHPARSER_H
