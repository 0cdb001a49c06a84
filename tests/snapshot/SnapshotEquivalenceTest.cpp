//===- tests/snapshot/SnapshotEquivalenceTest.cpp -----------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the warm-start snapshot claim (src/snapshot/): a
/// save/load round-trip of a live-trained SLL cache is *behaviorally
/// invisible*. Over 200+ random grammars, crossed with both cache
/// backends and both allocation backends, a parser seeded from a loaded
/// snapshot must produce bit-identical ParseResults, identical
/// Machine::Stats (cache hits/misses/states-added included), and an
/// identical trace-event stream to a parser seeded from the original
/// live-trained cache. The lexer half does the same for scanners rebuilt
/// from a snapshot's compiled DFA.
///
/// Round-trip stability rides along: re-serializing a loaded cache must
/// reproduce the input bytes exactly (save . load . save == save), for
/// every grammar in the sweep — the strongest cheap witness that nothing
/// is lost or reordered in either direction.
///
//===----------------------------------------------------------------------===//

#include "core/Parser.h"
#include "core/SharedSllCache.h"
#include "lang/Language.h"
#include "obs/Trace.h"
#include "snapshot/Snapshot.h"
#include "workload/Generators.h"

#include "../RandomGrammar.h"
#include "../TestGrammars.h"
#include "grammar/Sampler.h"

#include <gtest/gtest.h>

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

void expectStatsIdentical(const Machine::Stats &A, const Machine::Stats &B,
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

ParseOptions makeOpts(CacheBackend CB, adt::AllocBackend AB,
                      obs::Tracer *Trace = nullptr) {
  ParseOptions Opts;
  Opts.Backend = CB;
  Opts.Alloc = AB;
  Opts.ReuseCache = true;
  Opts.Trace = Trace;
  return Opts;
}

} // namespace

TEST(SnapshotEquivalence, RoundTripInvisibleOnRandomGrammars) {
  // 200+ random grammars x both cache backends x both alloc backends.
  std::mt19937_64 Rng(20260809);
  int Grammars = 0;
  uint64_t NonTrivialSnapshots = 0;
  while (Grammars < 210) {
    Grammar G = randomNonLeftRecursiveGrammar(Rng);
    ++Grammars;
    GrammarAnalysis A(G, 0);
    PredictionTables Tables(G, A);
    DerivationSampler Sampler(A, Rng());
    // A small training set and a separate eval set, half corrupted so
    // rejects and cold DFA paths are exercised against the warm cache.
    std::vector<Word> TrainWords, EvalWords;
    for (int I = 0; I < 3; ++I) {
      Word W = Sampler.sampleWord(0, 5);
      if (W.size() <= 40)
        TrainWords.push_back(std::move(W));
    }
    for (int I = 0; I < 4; ++I) {
      Word W = Sampler.sampleWord(0, 5);
      if (W.size() > 40)
        continue;
      if (I % 2 == 1)
        W = corruptWord(Rng, G, W);
      EvalWords.push_back(std::move(W));
    }
    for (CacheBackend CB :
         {CacheBackend::AvlPaperFaithful, CacheBackend::Hashed}) {
      // Train a live cache the way a real process would.
      SllCache Trained(CB);
      for (const Word &W : TrainWords) {
        Machine M(G, Tables, 0, W,
                  makeOpts(CB, adt::AllocBackend::SharedPtrPaperFaithful),
                  &Trained);
        (void)M.run();
      }
      NonTrivialSnapshots += Trained.numStates() > 0;
      // Save, load, and demand structural identity.
      std::vector<uint8_t> Bytes =
          snapshot::buildSnapshotBytes(G, &Trained, {});
      snapshot::LoadResult L = snapshot::parseSnapshotBytes(Bytes, G, CB);
      ASSERT_TRUE(L.ok()) << L.Err->toString() << "\n" << G.toString();
      ASSERT_TRUE(L.Contents.Cache);
      ASSERT_EQ(L.Contents.Cache->backend(), CB);
      ASSERT_EQ(L.Contents.Cache->numStates(), Trained.numStates());
      ASSERT_EQ(L.Contents.Cache->numTransitions(),
                Trained.numTransitions());
      // save . load . save == save: nothing lost, nothing reordered.
      EXPECT_EQ(snapshot::buildSnapshotBytes(G, L.Contents.Cache.get(), {}),
                Bytes)
          << G.toString();
      for (adt::AllocBackend AB : {adt::AllocBackend::SharedPtrPaperFaithful,
                                   adt::AllocBackend::Arena}) {
        for (const Word &W : EvalWords) {
          // Live-trained reference run, trace recorded.
          obs::RingBufferTracer Rec(1 << 15);
          Parser LiveP(G, 0, makeOpts(CB, AB, &Rec));
          ASSERT_TRUE(LiveP.warmStart(Trained));
          Machine::Stats LiveStats;
          ParseResult LiveR = LiveP.parse(W, &LiveStats);
          // Snapshot-loaded run replayed against the recording.
          ASSERT_EQ(Rec.dropped(), 0u) << "trace buffer sized too small";
          std::vector<obs::TraceEvent> Expected = Rec.events();
          obs::CheckingTracer Chk(Expected);
          Parser LoadP(G, 0, makeOpts(CB, AB, &Chk));
          ASSERT_TRUE(LoadP.warmStart(*L.Contents.Cache));
          Machine::Stats LoadStats;
          ParseResult LoadR = LoadP.parse(W, &LoadStats);
          expectIdentical(LiveR, LoadR, G);
          expectStatsIdentical(LiveStats, LoadStats, G);
          EXPECT_TRUE(Chk.ok()) << Chk.report() << "\n" << G.toString();
        }
      }
    }
  }
  // The sweep is vacuous if training never built DFA states.
  EXPECT_GT(NonTrivialSnapshots, 100u);
}

TEST(SnapshotEquivalence, AdoptedSnapshotServesSharedCache) {
  // The SharedSllCache adopt() path: a loaded cache handed to the shared
  // holder behaves exactly like one published by a live thread — and a
  // machine seeded from it parses fully warm.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  GrammarAnalysis A(G, S);
  PredictionTables Tables(G, A);
  Word W = makeWord(G, "a a b c");
  for (CacheBackend CB :
       {CacheBackend::AvlPaperFaithful, CacheBackend::Hashed}) {
    SllCache Trained(CB);
    Machine M(G, Tables, S, W,
              makeOpts(CB, adt::AllocBackend::SharedPtrPaperFaithful),
              &Trained);
    ASSERT_EQ(M.run().kind(), ParseResult::Kind::Unique);
    std::vector<uint8_t> Bytes = snapshot::buildSnapshotBytes(G, &Trained, {});
    snapshot::LoadResult L = snapshot::parseSnapshotBytes(Bytes, G, CB);
    ASSERT_TRUE(L.ok()) << L.Err->toString();

    SharedSllCache Shared(CB);
    EXPECT_TRUE(Shared.adopt(L.Contents.Cache));
    EXPECT_EQ(Shared.snapshot()->numStates(), Trained.numStates());
    // Strictly-warmer rule: adopting the same coverage again is refused.
    snapshot::LoadResult L2 = snapshot::parseSnapshotBytes(Bytes, G, CB);
    ASSERT_TRUE(L2.ok());
    EXPECT_FALSE(Shared.adopt(L2.Contents.Cache));
    // Backend check: a cache of the other backend is refused outright.
    auto Other = std::make_shared<SllCache>(
        CB == CacheBackend::Hashed ? CacheBackend::AvlPaperFaithful
                                   : CacheBackend::Hashed);
    EXPECT_FALSE(Shared.adopt(Other));

    // A machine seeded from the adopted snapshot parses with zero misses.
    SllCache Seeded = *Shared.snapshot();
    EXPECT_EQ(Seeded.Hits, 0u);
    EXPECT_EQ(Seeded.Misses, 0u);
    Machine M2(G, Tables, S, W,
               makeOpts(CB, adt::AllocBackend::SharedPtrPaperFaithful),
               &Seeded);
    EXPECT_EQ(M2.run().kind(), ParseResult::Kind::Unique);
    EXPECT_EQ(M2.stats().CacheMisses, 0u);
    EXPECT_GT(M2.stats().CacheHits, 0u);
  }
}

TEST(SnapshotEquivalence, WarmStartRefusesBackendMismatch) {
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  SllCache Avl(CacheBackend::AvlPaperFaithful);
  Parser P(G, S,
           makeOpts(CacheBackend::Hashed,
                    adt::AllocBackend::SharedPtrPaperFaithful));
  EXPECT_FALSE(P.warmStart(Avl));
  // And the loader surfaces the same mismatch as a structured error.
  SllCache Trained(CacheBackend::AvlPaperFaithful);
  std::vector<uint8_t> Bytes = snapshot::buildSnapshotBytes(G, &Trained, {});
  snapshot::LoadResult L =
      snapshot::parseSnapshotBytes(Bytes, G, CacheBackend::Hashed);
  ASSERT_FALSE(L.ok());
  EXPECT_EQ(L.Err->Kind, robust::SnapshotErrorKind::BackendMismatch);
}

TEST(SnapshotEquivalence, LexerRoundTripTokenIdentical) {
  // Scanners rebuilt from a snapshot's compiled DFA must tokenize every
  // input identically to the spec-compiled original — token ids, texts,
  // positions, and error diagnostics alike.
  std::mt19937_64 Rng(424243);
  for (lang::LangId Id : {lang::LangId::Json, lang::LangId::Dot,
                          lang::LangId::Python}) {
    lang::Language L = lang::makeLanguage(Id);
    const lexer::Scanner *Orig =
        L.Plain ? L.Plain.get() : L.IndentInner.get();
    ASSERT_NE(Orig, nullptr);
    const lexer::Scanner *Scanners[] = {Orig};
    std::vector<uint8_t> Bytes =
        snapshot::buildSnapshotBytes(L.G, nullptr, Scanners);
    snapshot::LoadResult Loaded = snapshot::parseSnapshotBytes(Bytes, L.G);
    ASSERT_TRUE(Loaded.ok()) << Loaded.Err->toString();
    ASSERT_FALSE(Loaded.Contents.Cache) << "lexer-only snapshot grew a cache";
    ASSERT_EQ(Loaded.Contents.Lexers.size(), 1u);
    lexer::Scanner Rebuilt = Loaded.Contents.Lexers[0].toScanner();
    EXPECT_EQ(Rebuilt.numDfaStates(), Orig->numDfaStates());
    EXPECT_EQ(Rebuilt.ruleTerminals(), Orig->ruleTerminals());

    // Real corpus files plus random byte strings (valid and hostile).
    std::vector<std::string> Inputs;
    for (int I = 0; I < 6; ++I)
      Inputs.push_back(workload::generateSource(Id, Rng, 60 + 40 * I));
    for (int I = 0; I < 40; ++I) {
      std::string S;
      size_t Len = Rng() % 64;
      for (size_t J = 0; J < Len; ++J)
        S.push_back(static_cast<char>(I % 2 ? ' ' + Rng() % 95 : Rng() % 256));
      Inputs.push_back(std::move(S));
    }
    // The rebuilt scanner starts on the default (Swar) backend; the
    // paper-faithful scalar walk over the rebuilt DFA must match too.
    for (lexer::LexBackend B :
         {lexer::LexBackend::Swar, lexer::LexBackend::ScalarPaperFaithful}) {
      Rebuilt.setLexBackend(B);
      ASSERT_EQ(Rebuilt.lexBackend(), B);
      for (const std::string &Src : Inputs) {
        lexer::LexResult RO = Orig->scan(Src);
        lexer::LexResult RR = Rebuilt.scan(Src);
        ASSERT_EQ(RO.ok(), RR.ok()) << L.Name;
        ASSERT_EQ(RO.Tokens.size(), RR.Tokens.size()) << L.Name;
        for (size_t I = 0; I < RO.Tokens.size(); ++I) {
          EXPECT_EQ(RO.Tokens[I].Term, RR.Tokens[I].Term) << L.Name;
          EXPECT_EQ(RO.Tokens[I].Lexeme, RR.Tokens[I].Lexeme) << L.Name;
          EXPECT_EQ(RO.Tokens[I].Line, RR.Tokens[I].Line) << L.Name;
          EXPECT_EQ(RO.Tokens[I].Col, RR.Tokens[I].Col) << L.Name;
        }
        EXPECT_EQ(RO.Error, RR.Error) << L.Name;
        EXPECT_EQ(RO.ErrorLine, RR.ErrorLine) << L.Name;
        EXPECT_EQ(RO.ErrorCol, RR.ErrorCol) << L.Name;
      }
    }
  }
}
