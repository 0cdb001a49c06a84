//===- tests/core/AllocEquivalenceTest.cpp ------------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the allocation-backend claims (adt/Arena.h):
///
///  - AllocBackend::Arena produces bit-identical ParseResults to
///    AllocBackend::SharedPtrPaperFaithful on every input — same kind,
///    same tree, same reject diagnostics, same error — over random
///    grammars (including ambiguous, rejecting, and left-recursive ones),
///    crossed with both cache backends.
///
///  - Stats are identical modulo the alloc counters: machine operations,
///    prediction and cache activity, and AllocNodes (counted at creation
///    helpers, so a long-lived cache's heap copies are invisible) all
///    match; AllocBytes is deliberately excluded (backend-dependent
///    accounting).
///
///  - Trace event sequences are identical across alloc backends.
///
///  - Result lifetime: an accepted result co-owns the result arena its
///    tree was built in. It stays valid across later parses and parser
///    destruction, pins only tree memory (the scratch arena is reused by
///    the next parse), and the parser reuses its warmed result arena
///    whenever no result holds it. Cross-thread destruction is covered in
///    ResultLifetimeTest.cpp, which runs under TSan. The ParseBudget byte
///    cap trips inside the arena path.
///
//===----------------------------------------------------------------------===//

#include "core/Parser.h"
#include "lang/Language.h"
#include "obs/Trace.h"
#include "workload/Generators.h"

#include "../RandomGrammar.h"
#include "../TestGrammars.h"
#include "grammar/Sampler.h"

#include <gtest/gtest.h>

#include <optional>

using namespace costar;
using namespace costar::test;

namespace {

/// Bit-identical comparison of two ParseResults.
void expectIdentical(const ParseResult &A, const ParseResult &B,
                     const Grammar &G) {
  ASSERT_EQ(A.kind(), B.kind()) << G.toString();
  switch (A.kind()) {
  case ParseResult::Kind::Unique:
  case ParseResult::Kind::Ambig:
    EXPECT_TRUE(treeEquals(A.tree(), B.tree())) << G.toString();
    break;
  case ParseResult::Kind::Reject:
    EXPECT_EQ(A.rejectTokenIndex(), B.rejectTokenIndex()) << G.toString();
    EXPECT_EQ(A.rejectReason(), B.rejectReason()) << G.toString();
    break;
  case ParseResult::Kind::Error:
    EXPECT_EQ(A.err().Kind, B.err().Kind) << G.toString();
    EXPECT_EQ(A.err().Nt, B.err().Nt) << G.toString();
    break;
  case ParseResult::Kind::BudgetExceeded:
    EXPECT_EQ(static_cast<int>(A.budget().Reason),
              static_cast<int>(B.budget().Reason))
        << G.toString();
    break;
  }
}

/// Everything in Machine::Stats except AllocBytes (whose accounting is
/// backend-dependent by design) must be identical across alloc backends.
void expectStatsIdenticalModuloBytes(const Machine::Stats &A,
                                     const Machine::Stats &B,
                                     const Grammar &G) {
  EXPECT_EQ(A.Steps, B.Steps) << G.toString();
  EXPECT_EQ(A.Consumes, B.Consumes) << G.toString();
  EXPECT_EQ(A.Pushes, B.Pushes) << G.toString();
  EXPECT_EQ(A.Returns, B.Returns) << G.toString();
  EXPECT_EQ(A.Pred.Predictions, B.Pred.Predictions) << G.toString();
  EXPECT_EQ(A.Pred.SllPredictions, B.Pred.SllPredictions) << G.toString();
  EXPECT_EQ(A.Pred.Failovers, B.Pred.Failovers) << G.toString();
  EXPECT_EQ(A.CacheHits, B.CacheHits) << G.toString();
  EXPECT_EQ(A.CacheMisses, B.CacheMisses) << G.toString();
  EXPECT_EQ(A.CacheStatesAdded, B.CacheStatesAdded) << G.toString();
  EXPECT_EQ(A.AllocNodes, B.AllocNodes) << G.toString();
}

ParseOptions withBackends(adt::AllocBackend Alloc, CacheBackend Cache) {
  ParseOptions Opts;
  Opts.Alloc = Alloc;
  Opts.Backend = Cache;
  return Opts;
}

} // namespace

TEST(AllocBackends, BitIdenticalOnRandomGrammars) {
  // >= 200 random grammars x both cache backends x both alloc backends.
  std::mt19937_64 Rng(20260806);
  int Grammars = 0, Ambigs = 0, Rejects = 0, Errors = 0;
  while (Grammars < 200) {
    Grammar G = randomGrammar(Rng);
    GrammarAnalysis A(G, 0);
    if (!A.productive(0))
      continue;
    ++Grammars;
    DerivationSampler Sampler(A, Rng());
    bool LeftRec = !isLeftRecursionFree(A);
    for (CacheBackend CB :
         {CacheBackend::AvlPaperFaithful, CacheBackend::Hashed}) {
      Parser Shared(G, 0,
                    withBackends(adt::AllocBackend::SharedPtrPaperFaithful,
                                 CB));
      Parser Arena(G, 0, withBackends(adt::AllocBackend::Arena, CB));
      for (int WordTrial = 0; WordTrial < 3; ++WordTrial) {
        Word W;
        if (LeftRec) {
          size_t Len = Rng() % 6;
          for (size_t I = 0; I < Len; ++I) {
            TerminalId T = static_cast<TerminalId>(Rng() % G.numTerminals());
            W.emplace_back(T, G.terminalName(T));
          }
        } else {
          W = Sampler.sampleWord(0, 5);
          if (W.size() > 40)
            continue;
          if (WordTrial % 2 == 1)
            W = corruptWord(Rng, G, W);
        }
        Machine::Stats SS, SA;
        ParseResult RS = Shared.parse(W, &SS);
        ParseResult RA = Arena.parse(W, &SA);
        expectIdentical(RS, RA, G);
        expectStatsIdenticalModuloBytes(SS, SA, G);
        switch (RS.kind()) {
        case ParseResult::Kind::Ambig:
          ++Ambigs;
          break;
        case ParseResult::Kind::Reject:
          ++Rejects;
          break;
        case ParseResult::Kind::Error:
          ++Errors;
          break;
        default:
          break;
        }
      }
    }
  }
  // The sweep must actually have exercised the interesting result kinds.
  EXPECT_GT(Rejects, 10);
  EXPECT_GT(Ambigs + Errors, 0);
}

TEST(AllocBackends, TraceEventSequencesIdentical) {
  // The arena changes where nodes live, never what the machine does: two
  // parses of the same word must emit identical event streams.
  std::mt19937_64 Rng(77);
  for (int Trial = 0; Trial < 10; ++Trial) {
    Grammar G = randomNonLeftRecursiveGrammar(Rng);
    GrammarAnalysis A(G, 0);
    DerivationSampler Sampler(A, Rng());
    Word W = Sampler.sampleWord(0, 5);
    if (W.size() > 60)
      continue;
    obs::RingBufferTracer TS(1 << 14), TA(1 << 14);
    ParseOptions OS =
        withBackends(adt::AllocBackend::SharedPtrPaperFaithful,
                     CacheBackend::Hashed);
    ParseOptions OA =
        withBackends(adt::AllocBackend::Arena, CacheBackend::Hashed);
    OS.Trace = &TS;
    OA.Trace = &TA;
    (void)parse(G, 0, W, OS);
    (void)parse(G, 0, W, OA);
    std::vector<obs::TraceEvent> ES = TS.events(), EA = TA.events();
    ASSERT_EQ(ES.size(), EA.size()) << G.toString();
    for (size_t I = 0; I < ES.size(); ++I)
      EXPECT_TRUE(obs::sameFact(ES[I], EA[I])) << G.toString();
  }
}

TEST(AllocLifetime, ResultsOutliveTheEpoch) {
  // An accepted result owns its tree, so it stays valid (and structurally
  // unchanged) across any number of later parses that rewind the same
  // parser's scratch arena.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  Parser P(G, S, withBackends(adt::AllocBackend::Arena, CacheBackend::Hashed));
  Word W1 = makeWord(G, "a a b c");
  Word W2 = makeWord(G, "b d");
  ParseResult R1 = P.parse(W1);
  ASSERT_EQ(R1.kind(), ParseResult::Kind::Unique);
  // The tree lives in the result arena, never in the scratch arena.
  EXPECT_TRUE(P.epochArena()->pairedResults()->owns(R1.tree().get()));
  EXPECT_FALSE(P.epochArena()->owns(R1.tree().get()));
  std::string Before = R1.tree()->toString(G);
  // Rewind the epoch several times over.
  for (int I = 0; I < 5; ++I) {
    ParseResult R2 = P.parse(I % 2 ? W2 : W1);
    ASSERT_EQ(R2.kind(), ParseResult::Kind::Unique);
  }
  EXPECT_EQ(R1.tree()->toString(G), Before);
  EXPECT_EQ(R1.tree()->yield().size(), W1.size());
}

TEST(AllocLifetime, EpochResetBetweenConsecutiveParsesReusesSlabs) {
  // One Parser, many parses: after the first parse has grown the arena,
  // subsequent parses of like-sized inputs acquire no new slab capacity —
  // the zero-malloc steady state the arena exists for.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  ParseOptions Opts =
      withBackends(adt::AllocBackend::Arena, CacheBackend::Hashed);
  adt::Arena A;
  Opts.AllocArena = &A;
  Parser P(G, S, Opts);
  Word W = makeWord(G, "a a a a b c");
  ASSERT_EQ(P.parse(W).kind(), ParseResult::Kind::Unique);
  size_t Capacity = A.capacity();
  uint64_t Epoch = A.epoch();
  ASSERT_GT(Capacity, 0u);
  for (int I = 0; I < 10; ++I)
    ASSERT_EQ(P.parse(W).kind(), ParseResult::Kind::Unique);
  EXPECT_EQ(A.capacity(), Capacity);
  // Each run() opened a fresh epoch on the shared arena.
  EXPECT_EQ(A.epoch(), Epoch + 10);
}

TEST(AllocLifetime, EpochHandoffResultCoOwnsItsEpoch) {
  // The accepted result's handle co-owns the arena its tree was built in.
  // Holding it moves the parser's next tree to a fresh result arena; the
  // held tree stays bit-stable across later parses and even across the
  // parser's destruction.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  ParseOptions Opts =
      withBackends(adt::AllocBackend::Arena, CacheBackend::Hashed);
  Word W1 = makeWord(G, "a a b c");
  Word W2 = makeWord(G, "b d");
  std::optional<ParseResult> R1;
  std::string Before;
  {
    Parser P(G, S, Opts);
    R1 = P.parse(W1);
    ASSERT_EQ(R1->kind(), ParseResult::Kind::Unique);
    Before = R1->tree()->toString(G);
    const adt::Arena *Scratch = P.epochArena();
    const adt::Arena *Pinned = Scratch->pairedResults();
    ASSERT_TRUE(Pinned->owns(R1->tree().get()));
    for (int I = 0; I < 5; ++I) {
      ParseResult R2 = P.parse(I % 2 ? W2 : W1);
      ASSERT_EQ(R2.kind(), ParseResult::Kind::Unique);
      EXPECT_EQ(R1->tree()->toString(G), Before);
    }
    // The pinned arena was handed over, never rewound: the parser moved
    // to a fresh result arena (the old one stays alive under R1, so the
    // new pointer cannot be a coincidental reallocation at the same
    // address), and kept its one scratch arena throughout.
    EXPECT_NE(Scratch->pairedResults(), Pinned);
    EXPECT_EQ(P.epochArena(), Scratch);
  }
  // Parser destroyed; R1 keeps its result arena alive.
  EXPECT_EQ(R1->tree()->toString(G), Before);
  EXPECT_EQ(R1->tree()->yield().size(), W1.size());
}

TEST(AllocLifetime, EpochHandoffReusesArenaWhenResultsAreDropped) {
  // A held result only costs a fresh result arena while it is actually
  // held: callers that drop each result before the next parse keep the
  // zero-malloc steady state in both arenas.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  ParseOptions Opts =
      withBackends(adt::AllocBackend::Arena, CacheBackend::Hashed);
  Parser P(G, S, Opts);
  Word W = makeWord(G, "a a a a b c");
  ASSERT_EQ(P.parse(W).kind(), ParseResult::Kind::Unique);
  const adt::Arena *Scratch = P.epochArena();
  const adt::Arena *Results = Scratch->pairedResults();
  size_t ScratchCapacity = Scratch->capacity();
  size_t ResultCapacity = Results->capacity();
  uint64_t ResultEpoch = Results->epoch();
  ASSERT_GT(ScratchCapacity, 0u);
  ASSERT_GT(ResultCapacity, 0u);
  for (int I = 0; I < 10; ++I)
    ASSERT_EQ(P.parse(W).kind(), ParseResult::Kind::Unique);
  EXPECT_EQ(P.epochArena(), Scratch);
  EXPECT_EQ(Scratch->pairedResults(), Results);
  EXPECT_EQ(Scratch->capacity(), ScratchCapacity);
  EXPECT_EQ(Results->capacity(), ResultCapacity);
  EXPECT_EQ(Results->epoch(), ResultEpoch + 10);
}

TEST(AllocLifetime, HeldColdResultPinsOnlyItsTree) {
  // A cold parse allocates far more prediction scratch than tree. Holding
  // its result across the next parse must pin only the tree: the next
  // parse reuses the same scratch arena without growing it, and the held
  // result's arena stays within a small factor of the tree's own bytes.
  lang::Language L = lang::makeLanguage(lang::LangId::Python);
  std::mt19937_64 Rng(5);
  lexer::LexResult Lex =
      L.lex(workload::generateSource(lang::LangId::Python, Rng, 1500));
  ASSERT_TRUE(Lex.ok());
  Parser P(L.G, L.Start);
  ParseResult Held = P.parse(Lex.Tokens);
  ASSERT_EQ(Held.kind(), ParseResult::Kind::Unique);
  const adt::Arena *Scratch = P.epochArena();
  const adt::Arena *HeldArena = Scratch->pairedResults();
  ASSERT_TRUE(HeldArena->owns(Held.tree().get()));
  size_t ScratchCapacity = Scratch->capacity();

  ParseResult Next = P.parse(Lex.Tokens);
  ASSERT_EQ(Next.kind(), ParseResult::Kind::Unique);
  EXPECT_EQ(P.epochArena(), Scratch);
  EXPECT_EQ(Scratch->capacity(), ScratchCapacity);
  EXPECT_NE(Scratch->pairedResults(), HeldArena);
  EXPECT_TRUE(Tree::equals(*Held.tree(), *Next.tree()));

  // Every node but the root also takes one slot in its parent's forest.
  size_t TreeBytes =
      Held.tree()->nodeCount() * (sizeof(Tree) + sizeof(TreePtr));
  EXPECT_LE(HeldArena->capacity(), 3 * TreeBytes);
  EXPECT_GT(ScratchCapacity, 3 * TreeBytes);
}

TEST(AllocLifetime, SmallResultAfterLargeOnesPinsOnlyItsTree) {
  // A large parse grows the parser's result arena. Once its result is
  // dropped, a small parse must not build (and pin) its tree in those
  // large slabs.
  lang::Language L = lang::makeLanguage(lang::LangId::Python);
  std::mt19937_64 Rng(3);
  Word Large =
      L.lex(workload::generateSource(lang::LangId::Python, Rng, 3000)).Tokens;
  Word Small =
      L.lex(workload::generateSource(lang::LangId::Python, Rng, 60)).Tokens;
  Parser P(L.G, L.Start);
  ASSERT_TRUE(P.parse(Large).accepted());
  ParseResult Held = P.parse(Small);
  ASSERT_TRUE(Held.accepted());
  const adt::Arena *HeldArena = P.epochArena()->pairedResults();
  ASSERT_TRUE(HeldArena->owns(Held.tree().get()));
  size_t TreeBytes =
      Held.tree()->nodeCount() * (sizeof(Tree) + sizeof(TreePtr));
  EXPECT_LE(HeldArena->capacity(), 3 * TreeBytes);
}

TEST(AllocBackends, BitIdenticalWithEpochHandoff) {
  // Holding results moves later parses to fresh result arenas; that
  // changes ownership, never structure: held results match the sharedptr
  // backend's bit for bit.
  std::mt19937_64 Rng(20260807);
  int Grammars = 0;
  while (Grammars < 40) {
    Grammar G = randomGrammar(Rng);
    GrammarAnalysis A(G, 0);
    if (!A.productive(0) || !isLeftRecursionFree(A))
      continue;
    ++Grammars;
    DerivationSampler Sampler(A, Rng());
    Parser Shared(G, 0,
                  withBackends(adt::AllocBackend::SharedPtrPaperFaithful,
                               CacheBackend::Hashed));
    Parser Arena(G, 0,
                 withBackends(adt::AllocBackend::Arena, CacheBackend::Hashed));
    std::vector<std::pair<ParseResult, ParseResult>> Held;
    for (int WordTrial = 0; WordTrial < 3; ++WordTrial) {
      Word W = Sampler.sampleWord(0, 5);
      if (W.size() > 40)
        continue;
      Machine::Stats SS, SA;
      ParseResult RS = Shared.parse(W, &SS);
      ParseResult RA = Arena.parse(W, &SA);
      expectIdentical(RS, RA, G);
      expectStatsIdenticalModuloBytes(SS, SA, G);
      Held.emplace_back(std::move(RS), std::move(RA));
    }
    // Compared again after every later parse has run.
    for (const auto &[RS, RA] : Held)
      expectIdentical(RS, RA, G);
  }
}

TEST(AllocBudget, ByteCapTripsOnBothBackends) {
  // MaxAllocBytes is deterministic within a backend: an absurdly small cap
  // must trip (as BudgetExceeded{Memory}), an unlimited one must not.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  Word W = makeWord(G, "a a a a a a b c");
  for (adt::AllocBackend AB :
       {adt::AllocBackend::SharedPtrPaperFaithful,
        adt::AllocBackend::Arena}) {
    ParseOptions Opts = withBackends(AB, CacheBackend::Hashed);
    Opts.Budget.MaxAllocBytes = 1;
    ParseResult Capped = parse(G, S, W, Opts);
    ASSERT_EQ(Capped.kind(), ParseResult::Kind::BudgetExceeded)
        << adt::allocBackendName(AB);
    EXPECT_EQ(static_cast<int>(Capped.budget().Reason),
              static_cast<int>(robust::BudgetReason::Memory));
    Opts.Budget.MaxAllocBytes = robust::ParseBudget::Unlimited;
    EXPECT_EQ(parse(G, S, W, Opts).kind(), ParseResult::Kind::Unique);
  }
}

TEST(AllocStats, ArenaBytesCoverTreeAndSimStackNodes) {
  // Sanity floor on the byte accounting: an arena parse must charge at
  // least one Tree per consumed token plus the machine's pushes.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  Word W = makeWord(G, "a a b c");
  Machine::Stats St;
  (void)Parser(G, S,
               withBackends(adt::AllocBackend::Arena, CacheBackend::Hashed))
      .parse(W, &St);
  EXPECT_GT(St.AllocNodes, W.size());
  EXPECT_GE(St.AllocBytes, St.AllocNodes * sizeof(uint64_t));
}
