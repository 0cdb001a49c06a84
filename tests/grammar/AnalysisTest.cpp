//===- tests/grammar/AnalysisTest.cpp ---------------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "grammar/Analysis.h"

#include "../TestGrammars.h"
#include "grammar/LeftRecursion.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace costar;
using namespace costar::test;

namespace {

std::set<std::string> names(const Grammar &G, const adt::BitMatrix &Rows,
                            NonterminalId X) {
  std::set<std::string> Out;
  Rows.forEachSetBit(X, [&](uint32_t T) { Out.insert(G.terminalName(T)); });
  return Out;
}

} // namespace

TEST(Analysis, NullableFixpoint) {
  Grammar G = makeGrammar("S -> A B\n"
                          "A ->\n"
                          "A -> a\n"
                          "B -> A A\n"
                          "C -> c\n");
  GrammarAnalysis An(G, G.lookupNonterminal("S"));
  EXPECT_TRUE(An.nullable(G.lookupNonterminal("A")));
  EXPECT_TRUE(An.nullable(G.lookupNonterminal("B"))) << "via A A";
  EXPECT_TRUE(An.nullable(G.lookupNonterminal("S"))) << "via A B";
  EXPECT_FALSE(An.nullable(G.lookupNonterminal("C")));
}

TEST(Analysis, FirstSetsSeeThroughNullablePrefixes) {
  Grammar G = makeGrammar("S -> A b\n"
                          "A ->\n"
                          "A -> a\n");
  GrammarAnalysis An(G, G.lookupNonterminal("S"));
  const adt::BitMatrix &First = An.tables().first();
  EXPECT_EQ(names(G, First, G.lookupNonterminal("S")),
            (std::set<std::string>{"a", "b"}));
  EXPECT_EQ(names(G, First, G.lookupNonterminal("A")),
            (std::set<std::string>{"a"}));
}

TEST(Analysis, FollowSetsAndFollowEnd) {
  Grammar G = makeGrammar("S -> A b\n"
                          "S -> c A\n"
                          "A -> a\n");
  NonterminalId S = G.lookupNonterminal("S");
  NonterminalId A = G.lookupNonterminal("A");
  GrammarAnalysis An(G, S);
  const adt::BitMatrix &Follow = An.tables().follow();
  EXPECT_EQ(names(G, Follow, A), (std::set<std::string>{"b"}));
  EXPECT_TRUE(An.followEnd(A)) << "A ends S -> c A";
  EXPECT_TRUE(An.followEnd(S)) << "the start symbol may precede end";
  EXPECT_TRUE(names(G, Follow, S).empty());
}

TEST(Analysis, FirstOfSeqStopsAtNonNullable) {
  Grammar G = makeGrammar("S -> A B c\n"
                          "A ->\n"
                          "A -> a\n"
                          "B -> b\n");
  GrammarAnalysis An(G, G.lookupNonterminal("S"));
  const Production &P = G.production(0);
  bool Nullable = true;
  adt::BitRow Row(G.numTerminals());
  An.tables().firstOfSeqInto(P.Rhs, Row, Nullable);
  std::set<std::string> Got;
  Row.forEachSetBit([&](uint32_t T) { Got.insert(G.terminalName(T)); });
  EXPECT_EQ(Got, (std::set<std::string>{"a", "b"}));
  EXPECT_FALSE(Nullable) << "B is not nullable";
}

TEST(Analysis, ProductiveAndMinHeight) {
  Grammar G = makeGrammar("S -> a\n"
                          "S -> U\n"
                          "U -> U a\n"
                          "T -> S b\n");
  GrammarAnalysis An(G, G.lookupNonterminal("S"));
  EXPECT_TRUE(An.productive(G.lookupNonterminal("S")));
  EXPECT_FALSE(An.productive(G.lookupNonterminal("U")))
      << "U never terminates a derivation";
  EXPECT_TRUE(An.productive(G.lookupNonterminal("T")));
  EXPECT_EQ(An.minHeight(G.lookupNonterminal("S")), 2u) << "S over leaf a";
  EXPECT_EQ(An.minHeight(G.lookupNonterminal("T")), 3u);
  EXPECT_EQ(An.minHeight(G.lookupNonterminal("U")), UINT32_MAX);
}

TEST(LeftRecursion, DirectAndIndirectCycles) {
  Grammar Direct = makeGrammar("S -> S a\nS -> a\n");
  GrammarAnalysis AnD(Direct, 0);
  EXPECT_EQ(leftRecursiveNonterminals(AnD).size(), 1u);

  Grammar Indirect = makeGrammar("S -> A a\nA -> B\nB -> S b\nB -> b\n");
  GrammarAnalysis AnI(Indirect, 0);
  auto LR = leftRecursiveNonterminals(AnI);
  EXPECT_EQ(LR.size(), 3u) << "S, A, B all lie on the cycle";

  Grammar Clean = makeGrammar("S -> a S\nS -> b\n");
  GrammarAnalysis AnC(Clean, 0);
  EXPECT_TRUE(isLeftRecursionFree(AnC)) << "right recursion is fine";
}

TEST(LeftRecursion, NullablePrefixCreatesHiddenLeftRecursion) {
  // S -> A S c: A nullable makes S left-recursive (hidden left recursion).
  Grammar G = makeGrammar("S -> A S c\n"
                          "S -> b\n"
                          "A ->\n"
                          "A -> a\n");
  GrammarAnalysis An(G, G.lookupNonterminal("S"));
  auto LR = leftRecursiveNonterminals(An);
  ASSERT_EQ(LR.size(), 1u);
  EXPECT_EQ(LR[0], G.lookupNonterminal("S"));

  // Making the prefix non-nullable removes the left recursion.
  Grammar G2 = makeGrammar("S -> A S c\n"
                          "S -> b\n"
                          "A -> a\n");
  GrammarAnalysis An2(G2, G2.lookupNonterminal("S"));
  EXPECT_TRUE(isLeftRecursionFree(An2));
}

TEST(LeftRecursion, MutualRecursionOnRightIsClean) {
  Grammar G = makeGrammar("S -> a T\nT -> b S\nT -> c\n");
  GrammarAnalysis An(G, 0);
  EXPECT_TRUE(isLeftRecursionFree(An));
}
