//===- tests/analysis/AnalysisEquivalenceTest.cpp -----------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the FIRST/FOLLOW substrate (grammar/FirstFollow.h):
/// the flat bitset tables that GrammarAnalysis owns answer every query —
/// nullable, FIRST and FOLLOW membership, end-of-input follow, sequence
/// forms — identically to the textbook std::set fixpoints kept here as the
/// oracle, over hundreds of random grammars (including left-recursive and
/// nonproductive ones, where the fixpoints still converge and must still
/// agree).
///
//===----------------------------------------------------------------------===//

#include "grammar/Analysis.h"

#include "../RandomGrammar.h"

#include <gtest/gtest.h>

#include <set>

using namespace costar;
using namespace costar::test;

namespace {

/// The reference: nullable, FIRST and FOLLOW as round-robin std::set
/// fixpoints over the production table, the shape of the paper's
/// extracted code.
class SetFirstFollow {
  const Grammar &G;

public:
  std::vector<bool> Nullable;
  std::vector<std::set<TerminalId>> First;
  std::vector<std::set<TerminalId>> Follow;
  std::vector<bool> FollowEnd;

  SetFirstFollow(const Grammar &G, NonterminalId Start)
      : G(G), Nullable(G.numNonterminals(), false),
        First(G.numNonterminals()), Follow(G.numNonterminals()),
        FollowEnd(G.numNonterminals(), false) {
    computeNullable();
    computeFirst();
    computeFollow(Start);
  }

  bool nullableSeq(std::span<const Symbol> Syms) const {
    for (Symbol S : Syms)
      if (S.isTerminal() || !Nullable[S.nonterminalId()])
        return false;
    return true;
  }

  std::set<TerminalId> firstOfSeq(std::span<const Symbol> Syms,
                                  bool &NullableOut) const {
    std::set<TerminalId> Out;
    for (Symbol S : Syms) {
      if (S.isTerminal()) {
        Out.insert(S.terminalId());
        NullableOut = false;
        return Out;
      }
      NonterminalId Y = S.nonterminalId();
      Out.insert(First[Y].begin(), First[Y].end());
      if (!Nullable[Y]) {
        NullableOut = false;
        return Out;
      }
    }
    NullableOut = true;
    return Out;
  }

private:
  void computeNullable() {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (ProductionId Id = 0; Id < G.numProductions(); ++Id) {
        const Production &P = G.production(Id);
        if (!Nullable[P.Lhs] && nullableSeq(P.Rhs)) {
          Nullable[P.Lhs] = true;
          Changed = true;
        }
      }
    }
  }

  void computeFirst() {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (ProductionId Id = 0; Id < G.numProductions(); ++Id) {
        const Production &P = G.production(Id);
        bool Unused = false;
        std::set<TerminalId> Rhs = firstOfSeq(P.Rhs, Unused);
        size_t Before = First[P.Lhs].size();
        First[P.Lhs].insert(Rhs.begin(), Rhs.end());
        Changed |= First[P.Lhs].size() != Before;
      }
    }
  }

  void computeFollow(NonterminalId Start) {
    FollowEnd[Start] = true;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (ProductionId Id = 0; Id < G.numProductions(); ++Id) {
        const Production &P = G.production(Id);
        for (size_t I = 0; I < P.Rhs.size(); ++I) {
          if (P.Rhs[I].isTerminal())
            continue;
          NonterminalId X = P.Rhs[I].nonterminalId();
          size_t Before = Follow[X].size();
          bool BeforeEnd = FollowEnd[X];
          bool RestNullable = false;
          std::set<TerminalId> RestFirst = firstOfSeq(
              std::span<const Symbol>(P.Rhs).subspan(I + 1), RestNullable);
          Follow[X].insert(RestFirst.begin(), RestFirst.end());
          if (RestNullable) {
            Follow[X].insert(Follow[P.Lhs].begin(), Follow[P.Lhs].end());
            FollowEnd[X] = FollowEnd[X] || FollowEnd[P.Lhs];
          }
          Changed |= Follow[X].size() != Before || FollowEnd[X] != BeforeEnd;
        }
      }
    }
  }
};

std::set<TerminalId> rowSet(const adt::BitMatrix &M, NonterminalId X) {
  std::set<TerminalId> Out;
  M.forEachSetBit(X, [&](uint32_t T) { Out.insert(TerminalId(T)); });
  return Out;
}

/// Exhaustive query-level comparison of the tables against the oracle on
/// one grammar: the whole (nonterminal x terminal) membership space plus
/// random symbol sequences for the seq forms.
void expectTablesMatchOracle(const Grammar &G, std::mt19937_64 &Rng) {
  SetFirstFollow Set(G, 0);
  GrammarAnalysis A(G, 0);
  const FirstFollowTables &Bit = A.tables();

  for (NonterminalId X = 0; X < G.numNonterminals(); ++X) {
    EXPECT_EQ(Set.Nullable[X], A.nullable(X)) << G.toString();
    EXPECT_EQ(Set.FollowEnd[X], A.followEnd(X)) << G.toString();
    for (TerminalId T = 0; T < G.numTerminals(); ++T) {
      EXPECT_EQ(Set.First[X].count(T) != 0, Bit.first().test(X, T))
          << "FIRST(" << G.nonterminalName(X) << ", " << G.terminalName(T)
          << ")\n"
          << G.toString();
      EXPECT_EQ(Set.Follow[X].count(T) != 0, Bit.follow().test(X, T))
          << "FOLLOW(" << G.nonterminalName(X) << ", " << G.terminalName(T)
          << ")\n"
          << G.toString();
    }
    // Row enumeration (what forEachLl1Claim walks) yields the same sets.
    EXPECT_EQ(Set.First[X], rowSet(Bit.first(), X)) << G.toString();
    EXPECT_EQ(Set.Follow[X], rowSet(Bit.follow(), X)) << G.toString();
  }

  adt::BitRow Row(G.numTerminals());
  for (int Trial = 0; Trial < 8; ++Trial) {
    uint32_t Len = Rng() % 5;
    std::vector<Symbol> Seq;
    for (uint32_t I = 0; I < Len; ++I) {
      if (Rng() % 2)
        Seq.push_back(Symbol::terminal(
            static_cast<TerminalId>(Rng() % G.numTerminals())));
      else
        Seq.push_back(Symbol::nonterminal(
            static_cast<NonterminalId>(Rng() % G.numNonterminals())));
    }
    EXPECT_EQ(Set.nullableSeq(Seq), A.nullableSeq(Seq)) << G.toString();
    bool NullSet = false, NullBit = false;
    std::set<TerminalId> Expected = Set.firstOfSeq(Seq, NullSet);
    Row.clear();
    Bit.firstOfSeqInto(Seq, Row, NullBit);
    std::set<TerminalId> Got;
    Row.forEachSetBit([&](uint32_t T) { Got.insert(TerminalId(T)); });
    EXPECT_EQ(Expected, Got) << G.toString();
    EXPECT_EQ(NullSet, NullBit) << G.toString();
  }
}

} // namespace

TEST(FirstFollowOracle, QueryIdenticalOnRandomGrammars) {
  // >= 200 arbitrary random grammars: left-recursive, nonproductive, and
  // empty-production shapes all included — the fixpoints are total.
  std::mt19937_64 Rng(20260808);
  for (int I = 0; I < 200; ++I) {
    Grammar G = randomGrammar(Rng);
    expectTablesMatchOracle(G, Rng);
  }
}

TEST(FirstFollowOracle, QueryIdenticalOnWiderGrammars) {
  // A smaller sweep at larger grammar shapes, crossing the 64-terminal
  // word boundary of the bitset rows.
  std::mt19937_64 Rng(20260809);
  RandomGrammarOptions Wide;
  Wide.NumNonterminals = 12;
  Wide.NumTerminals = 70;
  Wide.MaxProductionsPerNt = 4;
  Wide.MaxRhsLen = 5;
  for (int I = 0; I < 30; ++I) {
    Grammar G = randomGrammar(Rng, Wide);
    expectTablesMatchOracle(G, Rng);
  }
}
