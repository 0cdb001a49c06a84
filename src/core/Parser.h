//===- core/Parser.h - Top-level CoStar API --------------------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry points to CoStar (Section 3.1 of the paper).
///
///   parse(G, S, w) returns
///     - Unique(v): v is the sole S-rooted parse tree for w;
///     - Ambig(v):  v is one of several distinct parse trees for w;
///     - Reject:    w is not in L(G);
///     - Error(e):  the machine reached an inconsistent state (proven — and
///                  here property-tested — not to occur for
///                  non-left-recursive grammars).
///
/// Parser wraps the per-grammar static work (grammar analysis and SLL
/// stable-return tables) so it can be shared across many inputs; each
/// parse() call uses a fresh SLL DFA cache by default, matching the paper's
/// benchmark configuration, with opt-in cache reuse across inputs as the
/// Section 8 extension.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_CORE_PARSER_H
#define COSTAR_CORE_PARSER_H

#include "core/Machine.h"
#include "grammar/Analysis.h"

namespace costar {

/// A reusable CoStar parser for one grammar and start symbol.
class Parser {
  const Grammar &G;
  NonterminalId Start;
  ParseOptions Opts;
  GrammarAnalysis Analysis;
  PredictionTables Tables;
  SllCache SharedCache;
  /// The parser's persistent scratch arena (when Opts.Alloc == Arena and
  /// the caller did not supply one): every parse() rewinds and reuses its
  /// slabs, so repeated parsing reaches a zero-malloc steady state, and it
  /// keeps the result arena of the last parse for reuse once no result
  /// holds it (adt::Arena::nextResultArena). Declared after Opts so the
  /// ctor can point Opts.AllocArena at it; the arena must not be mutated
  /// from multiple threads (service workers each own their arena instead).
  std::unique_ptr<adt::Arena> ParseArena;

public:
  Parser(const Grammar &G, NonterminalId Start, ParseOptions Opts = {})
      : G(G), Start(Start), Opts(Opts), Analysis(G, Start),
        Tables(G, Analysis), SharedCache(Opts.Backend) {
    if (this->Opts.Alloc == adt::AllocBackend::Arena &&
        !this->Opts.AllocArena) {
      ParseArena = std::make_unique<adt::Arena>();
      this->Opts.AllocArena = ParseArena.get();
    }
  }

  /// Parses \p Input, optionally reporting machine statistics. An accepted
  /// result owns its tree: it stays valid across later parses and after
  /// the parser is gone.
  ParseResult parse(const Word &Input, Machine::Stats *StatsOut = nullptr) {
    Machine M(G, Tables, Start, Input, Opts,
              Opts.ReuseCache ? &SharedCache : nullptr);
    ParseResult Result = M.run();
    if (StatsOut)
      *StatsOut = M.stats();
    return Result;
  }

  const Grammar &grammar() const { return G; }
  NonterminalId startSymbol() const { return Start; }
  const GrammarAnalysis &analysis() const { return Analysis; }
  const PredictionTables &tables() const { return Tables; }
  const SllCache &sharedCache() const { return SharedCache; }

  /// Drops any state accumulated by cache reuse.
  void resetCache() { SharedCache = SllCache(Opts.Backend); }

  /// Seeds the parser's reusable SLL cache from \p Warm — typically a
  /// snapshot-loaded cache (src/snapshot/) — so the first parse() of a
  /// fresh process already runs at warm-cache speed. Counters are zeroed
  /// on the seeded copy (structure, not activity: the same contract as
  /// SharedSllCache::publish), so Machine::Stats per-parse deltas account
  /// only for this parser's own lookups. \returns false, seeding nothing,
  /// when \p Warm was built under a different cache backend than this
  /// parser's options. Only meaningful with Opts.ReuseCache; without it
  /// every parse() starts from an empty machine-local cache regardless.
  bool warmStart(const SllCache &Warm) {
    if (Warm.backend() != Opts.Backend)
      return false;
    SharedCache = Warm;
    SharedCache.Hits = 0;
    SharedCache.Misses = 0;
    return true;
  }

  /// The scratch arena (null on the SharedPtrPaperFaithful backend or
  /// when the caller supplied its own). Exposed for tests and diagnostics;
  /// its pairedResults() is the last parse's result arena.
  const adt::Arena *epochArena() const { return ParseArena.get(); }
};

/// One-shot convenience wrapper: builds the static tables, parses, and
/// discards them. Prefer Parser for repeated parsing with one grammar.
inline ParseResult parse(const Grammar &G, NonterminalId Start,
                         const Word &Input, ParseOptions Opts = {}) {
  Parser P(G, Start, Opts);
  return P.parse(Input);
}

} // namespace costar

#endif // COSTAR_CORE_PARSER_H
