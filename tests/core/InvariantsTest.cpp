//===- tests/core/InvariantsTest.cpp ----------------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the machine-state invariant checker itself: it must
/// accept every state reached by legal execution (checked pervasively
/// elsewhere via ParseOptions::CheckInvariants) AND reject hand-built
/// states that violate each clause — otherwise the "theorems as runtime
/// checks" story would be vacuous.
///
//===----------------------------------------------------------------------===//

#include "core/Machine.h"

#include "core/Parser.h"

#include "../TestGrammars.h"

#include <gtest/gtest.h>

using namespace costar;
using namespace costar::test;

namespace {

struct MachineStateBuilder {
  Grammar G;
  std::vector<Symbol> StartSyms;
  std::vector<Frame> Stack;
  VisitedSet Visited;

  explicit MachineStateBuilder(Grammar Gr = figure2Grammar())
      : G(std::move(Gr)) {
    NonterminalId S = G.lookupNonterminal("S");
    StartSyms = {Symbol::nonterminal(S)};
    Stack.push_back(Frame{InvalidProductionId, &StartSyms, 0, {}});
  }

  /// Pushes the frame for production \p Id (as the machine would).
  void push(ProductionId Id) {
    Stack.push_back(Frame{Id, &G.production(Id).Rhs, 0, {}});
    Visited = Visited.insert(G.production(Id).Lhs);
  }

  std::string check() const {
    return checkMachineInvariants(G, Stack, Visited);
  }
};

} // namespace

TEST(Invariants, InitialStateIsWellFormed) {
  MachineStateBuilder B;
  EXPECT_EQ(B.check(), "");
}

TEST(Invariants, LegalPushChainIsWellFormed) {
  MachineStateBuilder B;
  NonterminalId S = B.G.lookupNonterminal("S");
  NonterminalId A = B.G.lookupNonterminal("A");
  B.push(B.G.productionsFor(S)[1]); // S -> A d
  B.push(B.G.productionsFor(A)[0]); // A -> a A
  EXPECT_EQ(B.check(), "");
}

TEST(Invariants, EmptyStackRejected) {
  MachineStateBuilder B;
  B.Stack.clear();
  EXPECT_NE(B.check(), "");
}

TEST(Invariants, BottomFrameMustBeSynthetic) {
  MachineStateBuilder B;
  B.Stack[0].Prod = 0; // claims to be a grammar production
  EXPECT_NE(B.check(), "");
}

TEST(Invariants, UpperFrameMustExpandCallersOpenNonterminal) {
  MachineStateBuilder B;
  NonterminalId A = B.G.lookupNonterminal("A");
  // Push A -> b directly under the bottom frame, whose open nonterminal
  // is S: violates WfUpper.
  B.push(B.G.productionsFor(A)[1]);
  EXPECT_NE(B.check(), "");
}

TEST(Invariants, TreeCountMustMatchProcessedSymbols) {
  MachineStateBuilder B;
  NonterminalId S = B.G.lookupNonterminal("S");
  B.push(B.G.productionsFor(S)[0]);
  B.Stack.back().Next = 1; // claims one processed symbol, zero trees
  EXPECT_NE(B.check(), "");
}

TEST(Invariants, TreeRootsMustMatchProcessedSymbols) {
  MachineStateBuilder B;
  NonterminalId S = B.G.lookupNonterminal("S");
  TerminalId a = B.G.lookupTerminal("a");
  B.push(B.G.productionsFor(S)[0]); // S -> A c: first symbol is A
  B.Stack.back().Next = 1;
  B.Stack.back().Trees.push_back(Tree::leaf(Token(a, "a"))); // root 'a' != A
  EXPECT_NE(B.check(), "");
}

TEST(Invariants, VisitedNonterminalMustBeOpenInACallerFrame) {
  MachineStateBuilder B;
  NonterminalId A = B.G.lookupNonterminal("A");
  // A is visited but no caller frame has A open.
  B.Visited = B.Visited.insert(A);
  std::string Violation = B.check();
  EXPECT_NE(Violation, "");
  EXPECT_NE(Violation.find("visited"), std::string::npos);
}

TEST(Invariants, VisitedSetMustBeTheTopFramesLeftHandSides) {
  // S -> . A d, then A -> a . B (a consumed), then B -> . b. A is open in
  // a caller frame, which is all Lemma 5.10 needs; but the consume emptied
  // the visited set, so only B can be visited now. LL prediction seeds
  // its visited frames from the top |Visited| frames, so {A} is illegal.
  MachineStateBuilder B(makeGrammar("S -> A d\nA -> a B\nB -> b\n"));
  NonterminalId S = B.G.lookupNonterminal("S");
  NonterminalId A = B.G.lookupNonterminal("A");
  NonterminalId BNt = B.G.lookupNonterminal("B");
  B.push(B.G.productionsFor(S)[0]);
  B.push(B.G.productionsFor(A)[0]);
  B.Stack.back().Next = 1;
  B.Stack.back().Trees.push_back(
      Tree::leaf(Token(B.G.lookupTerminal("a"), "a")));
  B.Visited = VisitedSet();
  B.push(B.G.productionsFor(BNt)[0]);
  EXPECT_EQ(B.check(), "") << "the legal state: only B is visited";
  B.Visited = VisitedSet().insert(A);
  std::string Violation = B.check();
  EXPECT_NE(Violation, "");
  EXPECT_NE(Violation.find("visited"), std::string::npos);
}

TEST(Invariants, CheckInvariantsOptionCatchesNothingOnLegalRuns) {
  // Belt and braces: full runs over assorted words with checking on never
  // produce an Error (the checker accepts all reachable states).
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  ParseOptions Opts;
  Opts.CheckInvariants = true;
  for (const char *Text :
       {"b c", "b d", "a b c", "a a a a b d", "a b", "c", ""}) {
    ParseResult R = parse(G, S, makeWord(G, Text), Opts);
    EXPECT_NE(R.kind(), ParseResult::Kind::Error) << Text;
  }
}
