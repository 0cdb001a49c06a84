//===- tests/core/PredictionTest.cpp ----------------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the prediction mechanism (Section 3.4): LL prediction,
/// SLL prediction with its static stable-return tables and DFA cache, and
/// the adaptivePredict failover policy, including the overapproximation
/// property behind Lemma 5.4 (SLL viable alternatives are a superset of LL
/// viable alternatives).
///
//===----------------------------------------------------------------------===//

#include "core/Prediction.h"

#include "../SmallStack.h"
#include "../TestGrammars.h"
#include "core/Machine.h"
#include "core/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <unordered_map>

using namespace costar;
using namespace costar::test;

namespace {

/// A minimal machine-stack context: the bottom frame with the start symbol
/// still unprocessed (as at the machine's first push decision).
struct StartContext {
  std::vector<Symbol> StartSyms;
  std::vector<Frame> Stack;
  StartContext(NonterminalId Start)
      : StartSyms({Symbol::nonterminal(Start)}) {
    Stack.push_back(Frame{InvalidProductionId, &StartSyms, 0, {}});
  }
};

} // namespace

TEST(Prediction, LlPicksUniqueViableAlternative) {
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  StartContext Ctx(S);
  // "a b d" forces S -> A d (production index 1 for S).
  Word W = makeWord(G, "a b d");
  PredictionResult R = llPredict(G, S, Ctx.Stack, VisitedSet(), W, 0);
  ASSERT_EQ(R.ResultKind, PredictionResult::Kind::Unique);
  EXPECT_EQ(R.Prod, G.productionsFor(S)[1]);
}

TEST(Prediction, LlRejectsWhenNoAlternativeViable) {
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  StartContext Ctx(S);
  Word W = makeWord(G, "c");
  PredictionResult R = llPredict(G, S, Ctx.Stack, VisitedSet(), W, 0);
  EXPECT_EQ(R.ResultKind, PredictionResult::Kind::Reject);
}

TEST(Prediction, LlReportsAmbiguityOnlyAtEndOfInput) {
  Grammar G = figure6Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  StartContext Ctx(S);
  Word W = makeWord(G, "a");
  PredictionResult R = llPredict(G, S, Ctx.Stack, VisitedSet(), W, 0);
  ASSERT_EQ(R.ResultKind, PredictionResult::Kind::Ambig);
  // Resolution favors the earliest-declared alternative (S -> X).
  EXPECT_EQ(R.Prod, G.productionsFor(S)[0]);
}

TEST(Prediction, LlDetectsLeftRecursionInSimulation) {
  Grammar G = makeGrammar("S -> A c\nA -> S b\nA -> b\n");
  NonterminalId S = G.lookupNonterminal("S");
  StartContext Ctx(S);
  Word W = makeWord(G, "b c");
  PredictionResult R = llPredict(G, S, Ctx.Stack, VisitedSet(), W, 0);
  ASSERT_EQ(R.ResultKind, PredictionResult::Kind::Error);
  EXPECT_EQ(R.Err.Kind, ParseErrorKind::LeftRecursive);
}

namespace {

/// Runs SLL prediction for nonterminal \p X of \p G on \p Text with a
/// fresh cache, analysing the grammar from \p Start.
PredictionResult sllOn(const Grammar &G, const char *Start, const char *X,
                       const char *Text) {
  GrammarAnalysis A(G, G.lookupNonterminal(Start));
  PredictionTables T(G, A);
  SllCache Cache;
  return sllPredict(G, T, Cache, G.lookupNonterminal(X), makeWord(G, Text),
                    0);
}

void expectLeftRecursive(const PredictionResult &R, const Grammar &G,
                         const char *X) {
  ASSERT_EQ(R.ResultKind, PredictionResult::Kind::Error);
  EXPECT_EQ(R.Err.Kind, ParseErrorKind::LeftRecursive);
  EXPECT_EQ(G.nonterminalName(R.Err.Nt), X);
}

} // namespace

TEST(Prediction, SllStartStateDetectsDirectLeftRecursion) {
  Grammar G = makeGrammar("S -> S a\nS -> b\n");
  expectLeftRecursive(sllOn(G, "S", "S", "b a"), G, "S");
}

TEST(Prediction, SllDetectsLeftRecursionHiddenByANullablePrefix) {
  // B derives only the empty word, so A -> B A x reopens A after B
  // returns: the return must leave A visited.
  Grammar G = makeGrammar("S -> A\nA -> B A x\nA -> y\nB ->\n");
  expectLeftRecursive(sllOn(G, "S", "A", "y x"), G, "A");
}

TEST(Prediction, SllDetectsALoopReachedAfterAnEmptyStackReturn) {
  // Deciding A empties the stack at once (A -> ε); the simulated return
  // to the static caller S -> A . C then reaches C's left recursion. The
  // returned-to frame was never pushed, so only C is visited there.
  Grammar G = makeGrammar("S -> A C\nA ->\nA -> a\nC -> C c\nC -> d\n");
  expectLeftRecursive(sllOn(G, "S", "A", "d"), G, "C");
}

TEST(Prediction, LlSeedsTheMachineVisitedSet) {
  // The machine has pushed S -> . A x, so S is visited when it predicts
  // A. The alternative A -> S y pushes S again: that push is the left
  // recursion. (Ignoring the machine's set would instead flag A, one
  // push later.)
  Grammar G = makeGrammar("S -> A x\nA -> S y\nA -> z\n");
  NonterminalId S = G.lookupNonterminal("S");
  NonterminalId A = G.lookupNonterminal("A");
  StartContext Ctx(S);
  ProductionId SAx = G.productionsFor(S)[0];
  Ctx.Stack.push_back(Frame{SAx, &G.production(SAx).Rhs, 0, {}});
  VisitedSet Visited = VisitedSet().insert(S);
  ASSERT_EQ(checkMachineInvariants(G, Ctx.Stack, Visited), "");
  PredictionResult R =
      llPredict(G, A, Ctx.Stack, Visited, makeWord(G, "z x"), 0);
  expectLeftRecursive(R, G, "S");
}

TEST(Prediction, ReturnedNonterminalIsNoLongerVisited) {
  // After the move on a, Y -> a . Y Y c pushes Y, whose empty alternative
  // returns at once; the next Y push must not count that closed Y as
  // open. Both modes must parse this non-left-recursive grammar.
  Grammar G = makeGrammar("S -> Y d\nS -> Y e\nY -> a Y Y c\nY ->\n");
  NonterminalId S = G.lookupNonterminal("S");
  PredictionResult Sll = sllOn(G, "S", "S", "a c d");
  ASSERT_EQ(Sll.ResultKind, PredictionResult::Kind::Unique);
  EXPECT_EQ(Sll.Prod, G.productionsFor(S)[0]);
  StartContext Ctx(S);
  PredictionResult Ll =
      llPredict(G, S, Ctx.Stack, VisitedSet(), makeWord(G, "a c e"), 0);
  ASSERT_EQ(Ll.ResultKind, PredictionResult::Kind::Unique);
  EXPECT_EQ(Ll.Prod, G.productionsFor(S)[1]);
}

TEST(Prediction, ClosureDedupsSeedsThatConvergeOnOneStack) {
  // After the move on a, each prediction has two seeds, X -> a . B and
  // X -> a . C, and both return to the same caller stack. Closure keeps
  // one config per (prediction, stack): S -> X's seeds both finish the
  // parse (one final config), and S -> X e's both park on e (one stable
  // config).
  Grammar G = makeGrammar("S -> X\nS -> X e\nX -> a B\nX -> a C\nB ->\n"
                          "C ->\n");
  NonterminalId S = G.lookupNonterminal("S");
  GrammarAnalysis A(G, S);
  PredictionTables T(G, A);
  SllCache Cache;
  PredictionResult R = sllPredict(G, T, Cache, S, makeWord(G, "a"), 0);
  ASSERT_EQ(R.ResultKind, PredictionResult::Kind::Unique);
  EXPECT_EQ(R.Prod, G.productionsFor(S)[0]);
  std::optional<uint32_t> Start = Cache.findStart(S);
  ASSERT_TRUE(Start);
  EXPECT_EQ(Cache.state(*Start).Configs.size(), 4u);
  std::optional<uint32_t> Next =
      Cache.findTransition(*Start, G.lookupTerminal("a"));
  ASSERT_TRUE(Next);
  const std::vector<Subparser> &Configs = Cache.state(*Next).Configs;
  ASSERT_EQ(Configs.size(), 2u);
  EXPECT_EQ(Cache.state(*Next).FinalPreds,
            std::vector<ProductionId>{G.productionsFor(S)[0]});
}

TEST(Prediction, StableReturnTargetsForFigure2) {
  Grammar G = figure2Grammar();
  GrammarAnalysis A(G, G.lookupNonterminal("S"));
  PredictionTables T(G, A);
  NonterminalId S = G.lookupNonterminal("S");
  NonterminalId ANt = G.lookupNonterminal("A");
  // A occurs in S -> A c (pos 0), S -> A d (pos 0), A -> a A (pos 1, at the
  // rule end, so it inherits A's other... no: it inherits RT(A) itself —
  // the fixpoint resolves the self-edge to A's non-end occurrences).
  const auto &RA = T.returnTargets(ANt);
  EXPECT_EQ(RA.size(), 2u) << "after c and after d";
  for (const SimFrame &F : RA) {
    EXPECT_EQ(F.Pos, 1u);
    EXPECT_EQ(G.production(F.Prod).Lhs, S);
  }
  // S never occurs in a right-hand side: no return targets, but S can end
  // the parse.
  EXPECT_TRUE(T.returnTargets(S).empty());
  EXPECT_TRUE(T.canFinish(S));
  // A cannot be followed by end of input (c or d always follows).
  EXPECT_FALSE(T.canFinish(ANt));
}

TEST(Prediction, CanFinishPropagatesThroughEndOccurrences) {
  Grammar G = makeGrammar("S -> a B\nB -> b C\nC -> c\n");
  GrammarAnalysis A(G, G.lookupNonterminal("S"));
  PredictionTables T(G, A);
  EXPECT_TRUE(T.canFinish(G.lookupNonterminal("S")));
  EXPECT_TRUE(T.canFinish(G.lookupNonterminal("B"))) << "B ends S's rule";
  EXPECT_TRUE(T.canFinish(G.lookupNonterminal("C"))) << "transitively";
}

TEST(Prediction, SllAgreesWithLlOnUnambiguousDecisions) {
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  NonterminalId ANt = G.lookupNonterminal("A");
  GrammarAnalysis A(G, S);
  PredictionTables T(G, A);
  SllCache Cache;
  StartContext Ctx(S);

  for (const char *Text : {"b c", "a b d", "a a a b c"}) {
    Word W = makeWord(G, Text);
    PredictionResult Sll = sllPredict(G, T, Cache, S, W, 0);
    PredictionResult Ll = llPredict(G, S, Ctx.Stack, VisitedSet(), W, 0);
    ASSERT_EQ(Sll.ResultKind, PredictionResult::Kind::Unique) << Text;
    ASSERT_EQ(Ll.ResultKind, PredictionResult::Kind::Unique) << Text;
    EXPECT_EQ(Sll.Prod, Ll.Prod) << Text;
  }
  (void)ANt;
}

TEST(Prediction, SllCacheHitsGrowOnRepeatedQueries) {
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  GrammarAnalysis A(G, S);
  PredictionTables T(G, A);
  SllCache Cache;
  Word W = makeWord(G, "a a a a b c");
  (void)sllPredict(G, T, Cache, S, W, 0);
  uint64_t MissesAfterFirst = Cache.Misses;
  EXPECT_GT(MissesAfterFirst, 0u);
  uint64_t HitsAfterFirst = Cache.Hits;
  (void)sllPredict(G, T, Cache, S, W, 0);
  EXPECT_EQ(Cache.Misses, MissesAfterFirst)
      << "second identical query computes nothing new";
  EXPECT_GT(Cache.Hits, HitsAfterFirst);
}

TEST(Prediction, SllOverapproximationForcesFailover) {
  // Context distinguishes the alternatives: inside brackets "l A r", the
  // trailing r belongs to S's rule, so A -> a is forced; at top level
  // "S -> A", A -> a r could consume it. SLL's wildcard stack sees both
  // contexts at once, so both alternatives reach the end of input as final
  // configs and SLL reports Ambig; LL, simulating the real stack, resolves
  // uniquely.
  Grammar G = makeGrammar("S -> A\n"
                          "S -> l A r\n"
                          "A -> a\n"
                          "A -> a r\n");
  NonterminalId S = G.lookupNonterminal("S");
  Parser P(G, S);
  Machine::Stats Stats;
  Word W = makeWord(G, "l a r");
  ParseResult R = P.parse(W, &Stats);
  ASSERT_EQ(R.kind(), ParseResult::Kind::Unique)
      << "LL failover must rescue the SLL ambiguity";
  EXPECT_EQ(R.tree()->toString(G), "(S l (A a) r)");
  EXPECT_GE(Stats.Pred.Failovers, 1u)
      << "SLL alone cannot resolve this decision";

  // Directly observe the SLL-level ambiguity for the A decision.
  GrammarAnalysis Analysis(G, S);
  PredictionTables T(G, Analysis);
  SllCache Cache;
  Word Rest = makeWord(G, "a r");
  PredictionResult Sll =
      sllPredict(G, T, Cache, G.lookupNonterminal("A"), Rest, 0);
  EXPECT_EQ(Sll.ResultKind, PredictionResult::Kind::Ambig);
}

TEST(Prediction, AdaptivePredictTrustsSllUnique) {
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  Parser P(G, S);
  Machine::Stats Stats;
  ParseResult R = P.parse(makeWord(G, "a b c"), &Stats);
  ASSERT_EQ(R.kind(), ParseResult::Kind::Unique);
  EXPECT_EQ(Stats.Pred.Failovers, 0u)
      << "unambiguous grammar with distinct follow sets needs no failover";
}

TEST(Prediction, SerializeSubparserDistinguishesStacks) {
  Grammar G = figure2Grammar();
  ProductionId P0 = 0, P1 = 1;
  auto Node = [&](ProductionId P, uint32_t Pos, SimStackPtr Tail) {
    return std::make_shared<SimStackNode>(
        SimFrame{P, &G.production(P).Rhs, Pos}, Tail);
  };
  Subparser A{P0, Node(P0, 0, nullptr)};
  Subparser B{P0, Node(P0, 1, nullptr)};
  Subparser C{P0, Node(P0, 0, Node(P1, 0, nullptr))};
  Subparser Final{P0, nullptr};
  std::vector<uint32_t> KA, KB, KC, KF;
  serializeSubparser(A, KA);
  serializeSubparser(B, KB);
  serializeSubparser(C, KC);
  serializeSubparser(Final, KF);
  EXPECT_NE(KA, KB);
  EXPECT_NE(KA, KC);
  EXPECT_NE(KA, KF);
  EXPECT_NE(KC, KF);
  std::vector<uint32_t> KA2;
  serializeSubparser(A, KA2);
  EXPECT_EQ(KA, KA2) << "serialization is deterministic";
}

namespace {

/// Heap sim-stack builder for hand-made configs (no arena is active).
struct StackBuilder {
  const Grammar &G;
  SimStackPtr operator()(ProductionId P, uint32_t Pos, SimStackPtr Tail) const {
    return std::make_shared<SimStackNode>(
        SimFrame{P, &G.production(P).Rhs, Pos}, std::move(Tail));
  }
};

/// Eight structurally distinct configs over the Figure 2 grammar: stacks
/// that differ in depth, in one frame, or only in their prediction, plus
/// two final configs.
std::vector<Subparser> sampleConfigs(const Grammar &G) {
  StackBuilder Node{G};
  auto Sp = [](ProductionId P, SimStackPtr Stack) {
    return Subparser{P, std::move(Stack)};
  };
  SimStackPtr Base = Node(1, 0, nullptr);
  return {Sp(0, Node(0, 0, nullptr)),     Sp(0, Node(0, 1, nullptr)),
          Sp(0, Node(2, 0, Base)),        Sp(1, Node(2, 0, Base)),
          Sp(0, Base),                    Sp(0, Node(2, 0, Node(2, 0, Base))),
          Sp(0, nullptr),                 Sp(1, nullptr)};
}

/// A structurally equal copy of \p Configs sharing no stack node with it.
std::vector<Subparser> deepCopy(const Grammar &G,
                                const std::vector<Subparser> &Configs) {
  StackBuilder Node{G};
  std::vector<Subparser> Out;
  for (const Subparser &Sp : Configs) {
    std::vector<const SimStackNode *> Frames;
    for (const SimStackNode *N = Sp.Stack.get(); N; N = N->Tail.get())
      Frames.push_back(N);
    SimStackPtr Copy;
    for (auto It = Frames.rbegin(); It != Frames.rend(); ++It)
      Copy = Node((*It)->F.Prod, (*It)->F.Pos, Copy);
    Out.push_back(Subparser{Sp.Prediction, Copy});
  }
  return Out;
}

bool sameConfigs(const std::vector<Subparser> &A,
                 const std::vector<Subparser> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!subparserEquals(A[I], B[I]))
      return false;
  return true;
}

const CacheBackend BothBackends[] = {CacheBackend::AvlPaperFaithful,
                                     CacheBackend::Hashed};

} // namespace

TEST(Prediction, CompareSubparsersBreaksHashTiesStructurally) {
  Grammar G = figure2Grammar();
  StackBuilder Node{G};
  SimStackPtr Base = Node(1, 0, nullptr);
  Subparser Short{0, Base};
  Subparser Long{0, Node(0, 0, Base)};
  Subparser OtherPred{1, Base};
  Subparser Final{0, nullptr};
  EXPECT_LT(compareSubparsers(Short, OtherPred), 0) << "prediction first";
  EXPECT_LT(compareSubparsers(Final, Short), 0) << "shorter stack first";
  // Frames compare from the top down: (0, 0) on top sorts before (1, 0).
  EXPECT_LT(compareSubparsers(Long, Short), 0);
  EXPECT_GT(compareSubparsers(Short, Long), 0);
  Subparser ShortCopy{0, Node(1, 0, nullptr)};
  EXPECT_EQ(compareSubparsers(Short, ShortCopy), 0);
}

TEST(Prediction, InternIsOrderInsensitiveAndStoresCanonicalOrder) {
  Grammar G = figure2Grammar();
  std::vector<Subparser> Configs = sampleConfigs(G);
  std::vector<Subparser> Stored[2];
  for (int B = 0; B < 2; ++B) {
    SllCache Cache(BothBackends[B]);
    ASSERT_EQ(Cache.intern(Configs), 0u);
    const std::vector<Subparser> &Canon = Cache.state(0).Configs;
    ASSERT_EQ(Canon.size(), Configs.size());
    for (size_t I = 1; I < Canon.size(); ++I) {
      uint64_t Prev = subparserHash(Canon[I - 1]);
      uint64_t Cur = subparserHash(Canon[I]);
      bool Ordered =
          Prev != Cur ? Prev < Cur
                      : compareSubparsers(Canon[I - 1], Canon[I]) < 0;
      EXPECT_TRUE(Ordered) << "configs " << I - 1 << " and " << I
                           << " out of order";
    }
    // Seeded shuffles of the list, half of them as structural copies
    // sharing no stack node with it, intern to the same state.
    std::mt19937 Rng(7);
    std::vector<Subparser> Shuffled = Configs;
    for (int Round = 0; Round < 200; ++Round) {
      std::shuffle(Shuffled.begin(), Shuffled.end(), Rng);
      ASSERT_EQ(Cache.intern(Round % 2 ? deepCopy(G, Shuffled) : Shuffled),
                0u);
    }
    EXPECT_EQ(Cache.numStates(), 1u);
    Stored[B] = Canon;
  }
  EXPECT_TRUE(sameConfigs(Stored[0], Stored[1]))
      << "both backends store the same canonical order";
}

TEST(Prediction, InternKeepsPrefixStatesDistinctWithDenseIds) {
  Grammar G = figure2Grammar();
  std::vector<Subparser> All = sampleConfigs(G);
  for (CacheBackend B : BothBackends) {
    SllCache Cache(B);
    // The canonical list and each of its strict prefixes are distinct
    // states, numbered in insertion order.
    ASSERT_EQ(Cache.intern(All), 0u);
    std::vector<Subparser> Canon = Cache.state(0).Configs;
    for (size_t Len = Canon.size() - 1; Len > 0; --Len) {
      std::vector<Subparser> Prefix(Canon.begin(), Canon.begin() + Len);
      EXPECT_EQ(Cache.intern(Prefix), Canon.size() - Len);
    }
    EXPECT_EQ(Cache.intern({}), Canon.size()) << "the empty state too";
    ASSERT_EQ(Cache.numStates(), Canon.size() + 1);
    // Re-interning finds every one of them again, in any order.
    for (size_t Len = 1; Len < Canon.size(); ++Len) {
      std::vector<Subparser> Prefix(Canon.begin(), Canon.begin() + Len);
      std::reverse(Prefix.begin(), Prefix.end());
      EXPECT_EQ(Cache.intern(deepCopy(G, Prefix)), Canon.size() - Len);
      EXPECT_TRUE(sameConfigs(Cache.state(Canon.size() - Len).Configs,
                              {Canon.begin(), Canon.begin() + Len}));
    }
    EXPECT_EQ(Cache.intern(All), 0u);
    EXPECT_EQ(Cache.numStates(), Canon.size() + 1);
  }
}

namespace {

/// Depth of the deepest sim stack cached in \p Cache, in time linear in
/// the distinct stack nodes (cached stacks share tails across states).
size_t deepestCachedStack(const SllCache &Cache) {
  std::unordered_map<const SimStackNode *, size_t> Depth{{nullptr, 0}};
  std::vector<const SimStackNode *> Path;
  size_t Deepest = 0;
  for (uint32_t Id = 0; Id < Cache.numStates(); ++Id)
    for (const Subparser &Sp : Cache.state(Id).Configs) {
      const SimStackNode *N = Sp.Stack.get();
      for (; !Depth.count(N); N = N->Tail.get())
        Path.push_back(N);
      size_t D = Depth[N];
      for (; !Path.empty(); Path.pop_back())
        Depth[Path.back()] = ++D;
      Deepest = std::max(Deepest, D);
    }
  return Deepest;
}

} // namespace

TEST(Prediction, DeepSllStacksInternOnASmallThreadStack) {
  // Deciding S needs the token after the matching parentheses, so SLL
  // prediction for S walks the whole input and its sim stacks reach the
  // nesting depth. With ReuseCache the cache outlives the parse, so every
  // new state is detached to the heap; neither that copy, interning, nor
  // tearing the cache down may recurse per stack frame.
  constexpr size_t Depth = 100000;
  Grammar G = makeGrammar("S -> A x\n"
                          "S -> A y\n"
                          "A -> ( A )\n"
                          "A ->\n");
  NonterminalId S = G.lookupNonterminal("S");
  Word W;
  for (size_t I = 0; I < Depth; ++I)
    W.emplace_back(G.lookupTerminal("("), "(");
  for (size_t I = 0; I < Depth; ++I)
    W.emplace_back(G.lookupTerminal(")"), ")");
  W.emplace_back(G.lookupTerminal("y"), "y");

  ParseOptions Opts;
  Opts.ReuseCache = true;
  ParseResult::Kind Kind = ParseResult::Kind::Error;
  size_t Deepest = 0, States = 0;
  runOnSmallStack(256 * 1024, [&] {
    Parser P(G, S, Opts);
    Kind = P.parse(W).kind();
    States = P.sharedCache().numStates();
    Deepest = deepestCachedStack(P.sharedCache());
  });
  EXPECT_EQ(Kind, ParseResult::Kind::Unique);
  EXPECT_GT(States, 2 * Depth);
  EXPECT_GE(Deepest, Depth);
}

TEST(Prediction, DetachCopiesADeepArenaStackOnASmallThreadStack) {
  // A cache that outlives the epoch copies a new state's arena frames to
  // the heap. Build one config whose whole 200k-frame stack is arena
  // nodes and intern it on a 256 KiB stack: the copy must be a loop, and
  // the copied stack must be complete and arena-free.
  constexpr size_t Depth = 200000;
  Grammar G = figure2Grammar();
  adt::Arena Epoch;
  SllCache Cache(CacheBackend::Hashed);
  size_t Copied = 0, LeftInArena = 0;
  runOnSmallStack(256 * 1024, [&] {
    adt::ScopedArena Scope(&Epoch, nullptr);
    SimStackPtr Stack;
    for (size_t I = 0; I < Depth; ++I)
      Stack = makeSimStack(SimFrame{0, &G.production(0).Rhs, 0}, Stack);
    uint32_t Id = Cache.intern({Subparser{0, Stack}});
    for (const SimStackNode *N = Cache.state(Id).Configs[0].Stack.get(); N;
         N = N->Tail.get()) {
      ++Copied;
      LeftInArena += Epoch.owns(N);
    }
  });
  EXPECT_EQ(Copied, Depth);
  EXPECT_EQ(LeftInArena, 0u);
}
