//===- grammar/FirstFollow.h - Flat bitset FIRST/FOLLOW tables -*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense FIRST/FOLLOW/nullable tables: one cache-line-aligned uint64_t
/// bitset row per nonterminal, terminals as bit indices. Section 6.1 of the
/// CoStar paper measures the extracted parser spending close to half its
/// time in log-factor symbol-set operations on large grammars; these tables
/// make every membership test one shift+mask and every fixpoint transfer a
/// word-wise OR, while computing *exactly* the least fixpoints of the
/// textbook std::set equations (the randomized equivalence suite in
/// tests/analysis/ keeps those fixpoints as its oracle and checks this per
/// grammar).
///
/// This is the single FIRST/FOLLOW substrate: GrammarAnalysis owns one,
/// and both ll1/Ll1Table and analysis/Engine derive their LL(1) cell
/// claims through forEachLl1Claim below, so the two can never drift.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_GRAMMAR_FIRSTFOLLOW_H
#define COSTAR_GRAMMAR_FIRSTFOLLOW_H

#include "adt/BitMatrix.h"
#include "grammar/Grammar.h"

#include <span>
#include <vector>

namespace costar {

/// Flat FIRST/FOLLOW/nullable tables for one grammar + start symbol.
/// Rows are nonterminals, columns are terminals. Built once per grammar by
/// a trio of word-wise worklist fixpoints.
class FirstFollowTables {
  uint32_t NumNts = 0;
  uint32_t NumTerms = 0;
  adt::BitMatrix FirstBits;
  adt::BitMatrix FollowBits;
  std::vector<uint8_t> NullableNt;
  std::vector<uint8_t> FollowEndNt;

  void computeNullable(const Grammar &G);
  void computeFirst(const Grammar &G);
  void computeFollow(const Grammar &G, NonterminalId Start);

public:
  FirstFollowTables() = default;

  /// Builds all three tables for \p G; FOLLOW is relative to \p Start.
  FirstFollowTables(const Grammar &G, NonterminalId Start);

  uint32_t numNonterminals() const { return NumNts; }
  uint32_t numTerminals() const { return NumTerms; }

  bool nullable(NonterminalId X) const { return NullableNt[X] != 0; }
  bool followEnd(NonterminalId X) const { return FollowEndNt[X] != 0; }

  const adt::BitMatrix &first() const { return FirstBits; }
  const adt::BitMatrix &follow() const { return FollowBits; }

  /// True if every symbol of \p Syms derives the empty word.
  bool nullableSeq(std::span<const Symbol> Syms) const {
    for (Symbol S : Syms)
      if (S.isTerminal() || !NullableNt[S.nonterminalId()])
        return false;
    return true;
  }

  /// FIRST of a sentential form, accumulated into \p Out (which must span
  /// numTerminals() columns and is NOT cleared first — callers reuse one
  /// scratch row across productions and clear between uses).
  /// \p NullableOut is set to whether the whole form is nullable.
  void firstOfSeqInto(std::span<const Symbol> Syms, adt::BitRow &Out,
                      bool &NullableOut) const {
    for (Symbol S : Syms) {
      if (S.isTerminal()) {
        Out.set(S.terminalId());
        NullableOut = false;
        return;
      }
      NonterminalId Y = S.nonterminalId();
      Out.orFrom(FirstBits, Y);
      if (!NullableNt[Y]) {
        NullableOut = false;
        return;
      }
    }
    NullableOut = true;
  }
};

/// Whether an LL(1) cell claim came from FIRST(rhs) or from FOLLOW(lhs)
/// via a nullable rhs — the distinction the analysis engine uses to split
/// FIRST/FIRST from FIRST/FOLLOW conflicts.
enum class Ll1ClaimSource : uint8_t { First, Follow };

/// The single definition of which LL(1) table cells each production claims:
/// FIRST(rhs) columns always, plus FOLLOW(lhs) columns and (if end-of-input
/// may follow lhs) the end column when the rhs is nullable. Calls
/// \p Claim(Prod, Lhs, Col, Source) with Col in [0, numTerminals()] where
/// Col == numTerminals() encodes end-of-input; claims for one production
/// arrive in ascending column order (FIRST block, then FOLLOW block), so
/// conflict diagnostics are deterministic. Both ll1::Ll1Table and analysis::Engine consume
/// this — neither owns a private copy of the claim rules.
template <typename ClaimFnT>
void forEachLl1Claim(const Grammar &G, const FirstFollowTables &T,
                     ClaimFnT &&Claim) {
  uint32_t EndCol = T.numTerminals();
  adt::BitRow Scratch(T.numTerminals());
  for (ProductionId Id = 0; Id < G.numProductions(); ++Id) {
    const Production &P = G.production(Id);
    Scratch.clear();
    bool Nullable = false;
    T.firstOfSeqInto(P.Rhs, Scratch, Nullable);
    Scratch.forEachSetBit([&](uint32_t Col) {
      Claim(Id, P.Lhs, Col, Ll1ClaimSource::First);
    });
    if (Nullable) {
      T.follow().forEachSetBit(P.Lhs, [&](uint32_t Col) {
        Claim(Id, P.Lhs, Col, Ll1ClaimSource::Follow);
      });
      if (T.followEnd(P.Lhs))
        Claim(Id, P.Lhs, EndCol, Ll1ClaimSource::Follow);
    }
  }
}

} // namespace costar

#endif // COSTAR_GRAMMAR_FIRSTFOLLOW_H
