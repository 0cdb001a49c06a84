//===- grammar/Analysis.h - Grammar analyses -------------------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static grammar analyses shared by the parsers and tools: nullability,
/// FIRST and FOLLOW sets (used by the LL(1) baseline and by the SLL stable-
/// return computation), productivity, reachability, and minimum derivation
/// heights (used by the random sentence sampler). All analyses are standard
/// monotone fixpoints over the production table. Nullability, FIRST and
/// FOLLOW live in the flat bitset tables of grammar/FirstFollow.h.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_GRAMMAR_ANALYSIS_H
#define COSTAR_GRAMMAR_ANALYSIS_H

#include "grammar/FirstFollow.h"
#include "grammar/Grammar.h"

#include <span>
#include <vector>

namespace costar {

/// Precomputed grammar facts. Construct once per grammar; all queries are
/// O(1) or O(set size).
class GrammarAnalysis {
  const Grammar &G;
  FirstFollowTables Tables;
  std::vector<bool> ProductiveNt;
  /// Minimum height of any derivation tree rooted at this nonterminal;
  /// UINT32_MAX for nonproductive nonterminals.
  std::vector<uint32_t> MinHeightNt;

  void computeProductive();
  void computeMinHeight();

public:
  /// Analyzes \p G; FOLLOW sets are computed relative to \p Start.
  GrammarAnalysis(const Grammar &G, NonterminalId Start);

  const Grammar &grammar() const { return G; }

  /// The flat FIRST/FOLLOW/nullable tables. Consumers that enumerate
  /// sets (ll1/Ll1Table, analysis/Engine) read the bitset rows directly.
  const FirstFollowTables &tables() const { return Tables; }

  bool nullable(NonterminalId X) const { return Tables.nullable(X); }

  /// \returns true if every symbol in \p Syms derives the empty word.
  bool nullableSeq(std::span<const Symbol> Syms) const {
    return Tables.nullableSeq(Syms);
  }

  /// True if the end of input may follow \p X.
  bool followEnd(NonterminalId X) const { return Tables.followEnd(X); }

  /// \returns true if \p X derives at least one terminal string.
  bool productive(NonterminalId X) const { return ProductiveNt[X]; }

  uint32_t minHeight(NonterminalId X) const { return MinHeightNt[X]; }

  /// Minimum derivation height of a sentential form (max over symbols).
  uint32_t minHeightSeq(std::span<const Symbol> Syms) const;
};

} // namespace costar

#endif // COSTAR_GRAMMAR_ANALYSIS_H
