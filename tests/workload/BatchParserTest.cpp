//===- tests/workload/BatchParserTest.cpp -------------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BatchParser determinism and aggregation tests. The multi-threaded
/// configurations here are also the workload the TSan CI job exercises:
/// 4 worker threads sharing a warm SLL DFA cache must be race-free and
/// return bit-identical results to the single-threaded batch.
///
//===----------------------------------------------------------------------===//

#include "workload/BatchParser.h"

#include "adt/Arena.h"
#include "service/Service.h"

#include "../RandomGrammar.h"
#include "../TestGrammars.h"
#include "grammar/Sampler.h"
#include "lang/Language.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>

using namespace costar;
using namespace costar::test;

namespace {

void expectSameResults(const workload::BatchResult &A,
                       const workload::BatchResult &B) {
  ASSERT_EQ(A.Results.size(), B.Results.size());
  for (size_t I = 0; I < A.Results.size(); ++I) {
    ASSERT_EQ(A.Results[I].kind(), B.Results[I].kind()) << "word " << I;
    if (A.Results[I].accepted()) {
      EXPECT_TRUE(treeEquals(A.Results[I].tree(), B.Results[I].tree()))
          << "word " << I;
    }
  }
  EXPECT_EQ(A.Accepted, B.Accepted);
  EXPECT_EQ(A.Rejected, B.Rejected);
  EXPECT_EQ(A.Errors, B.Errors);
}

std::vector<Word> sampledCorpus(const Grammar &G, size_t NumWords,
                                uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  GrammarAnalysis A(G, 0);
  DerivationSampler Sampler(A, Seed);
  std::vector<Word> Corpus;
  while (Corpus.size() < NumWords) {
    Word W = Sampler.sampleWord(0, 5);
    if (W.size() > 60)
      continue;
    if (Corpus.size() % 3 == 2)
      W = corruptWord(Rng, G, W);
    Corpus.push_back(std::move(W));
  }
  return Corpus;
}

} // namespace

TEST(BatchParser, FourThreadsMatchOneThreadOnRandomGrammars) {
  std::mt19937_64 Rng(606);
  for (int Trial = 0; Trial < 8; ++Trial) {
    Grammar G = randomNonLeftRecursiveGrammar(Rng);
    workload::BatchParser P(G, 0);
    std::vector<Word> Corpus = sampledCorpus(G, 48, Rng());

    workload::BatchOptions Single;
    Single.Threads = 1;
    workload::BatchOptions Four;
    Four.Threads = 4;
    Four.PublishInterval = 3; // force frequent publish/adopt traffic

    workload::BatchResult RS = P.parseAll(Corpus, Single);
    workload::BatchResult RF = P.parseAll(Corpus, Four);
    expectSameResults(RS, RF);
    // The parses themselves are deterministic, so per-word machine work
    // sums to the same totals regardless of scheduling; only cache
    // hit/miss splits may shift with warm-cache propagation.
    EXPECT_EQ(RS.Aggregate.Consumes, RF.Aggregate.Consumes);
    EXPECT_EQ(RS.Aggregate.Pushes, RF.Aggregate.Pushes);
    EXPECT_EQ(RS.Aggregate.Returns, RF.Aggregate.Returns);
  }
}

TEST(BatchParser, BothBackendsAgreeUnderThreading) {
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  workload::BatchParser P(G, S);
  std::vector<Word> Corpus;
  for (int I = 0; I < 40; ++I) {
    std::string Text;
    for (int J = 0; J < I % 7; ++J)
      Text += "a ";
    Text += "b ";
    Text += (I % 2 ? "c" : "d");
    Corpus.push_back(makeWord(G, Text));
  }
  workload::BatchOptions Avl;
  Avl.Threads = 4;
  Avl.Parse.Backend = CacheBackend::AvlPaperFaithful;
  workload::BatchOptions Hashed;
  Hashed.Threads = 4;
  Hashed.Parse.Backend = CacheBackend::Hashed;
  expectSameResults(P.parseAll(Corpus, Avl), P.parseAll(Corpus, Hashed));
}

TEST(BatchParser, SharedCacheMatchesUnsharedAndWarmsUp) {
  lang::Language L = lang::makeLanguage(lang::LangId::Json);
  workload::BatchParser P(L.G, L.Start);
  workload::Corpus C = workload::generateCorpus(lang::LangId::Json, 11,
                                                /*NumFiles=*/12, 50, 800);
  std::vector<Word> Corpus;
  for (const std::string &Src : C.Files) {
    lexer::LexResult Lexed = L.lex(Src);
    ASSERT_TRUE(Lexed.ok());
    Corpus.push_back(std::move(Lexed.Tokens));
  }

  workload::BatchOptions Shared;
  Shared.Threads = 4;
  Shared.PublishInterval = 2;
  workload::BatchOptions Unshared;
  Unshared.Threads = 4;
  Unshared.ShareCache = false;

  workload::BatchResult RS = P.parseAll(Corpus, Shared);
  workload::BatchResult RU = P.parseAll(Corpus, Unshared);
  expectSameResults(RS, RU);
  EXPECT_EQ(RS.Accepted, Corpus.size());
  // Sharing leaves a warm snapshot behind and must not *increase* miss
  // work relative to parsing every file cold.
  EXPECT_GT(RS.SharedCacheStates, 0u);
  EXPECT_EQ(RU.SharedCacheStates, 0u);
  EXPECT_LE(RS.Aggregate.CacheMisses, RU.Aggregate.CacheMisses);
}

TEST(BatchParser, AggregateStatsSumPerWordRuns) {
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  workload::BatchParser P(G, S);
  std::vector<Word> Corpus = {makeWord(G, "a b c"), makeWord(G, "b d"),
                              makeWord(G, "a a a b c")};
  workload::BatchOptions Opts;
  Opts.Threads = 1;
  Opts.ShareCache = false;
  workload::BatchResult R = P.parseAll(Corpus, Opts);
  ASSERT_EQ(R.Results.size(), 3u);
  EXPECT_EQ(R.Accepted, 3u);

  // Cross-check the aggregate against per-word Parser runs.
  Machine::Stats Expected;
  Parser Ref(G, S);
  for (const Word &W : Corpus) {
    Machine::Stats St;
    (void)Ref.parse(W, &St);
    Expected.accumulate(St);
  }
  EXPECT_EQ(R.Aggregate.Steps, Expected.Steps);
  EXPECT_EQ(R.Aggregate.Consumes, Expected.Consumes);
  EXPECT_EQ(R.Aggregate.Pushes, Expected.Pushes);
  EXPECT_EQ(R.Aggregate.Returns, Expected.Returns);
  EXPECT_EQ(R.Aggregate.Pred.Predictions, Expected.Pred.Predictions);
}

TEST(BatchParser, AllocBackendsAgreeUnderThreading) {
  // Each worker thread owns a private epoch arena; under TSan this test
  // certifies that per-thread arenas introduce no cross-thread traffic,
  // and the differential check certifies that trees escaping the worker
  // epochs (via the automatic detach) are bit-identical to shared_ptr
  // parses.
  std::mt19937_64 Rng(909);
  for (int Trial = 0; Trial < 4; ++Trial) {
    Grammar G = randomNonLeftRecursiveGrammar(Rng);
    workload::BatchParser P(G, 0);
    std::vector<Word> Corpus = sampledCorpus(G, 36, Rng());

    workload::BatchOptions SharedPtr;
    SharedPtr.Threads = 4;
    SharedPtr.PublishInterval = 3;
    SharedPtr.Parse.Alloc = adt::AllocBackend::SharedPtrPaperFaithful;
    workload::BatchOptions ArenaOpts;
    ArenaOpts.Threads = 4;
    ArenaOpts.PublishInterval = 3;
    ArenaOpts.Parse.Alloc = adt::AllocBackend::Arena;

    workload::BatchResult RS = P.parseAll(Corpus, SharedPtr);
    workload::BatchResult RA = P.parseAll(Corpus, ArenaOpts);
    expectSameResults(RS, RA);
    // Consumes are per-word deterministic (one per consumed token), so the
    // aggregate matches across backends. AllocNodes deliberately is not
    // compared here: prediction allocations depend on how warm each
    // worker's cache was when it drew a word, which is scheduling-
    // dependent — the single-threaded AllocEquivalenceTest pins that
    // counter under identical cache states instead.
    EXPECT_EQ(RS.Aggregate.Consumes, RA.Aggregate.Consumes);
    // Every returned tree owns its result arena: it outlives the workers
    // and their scratch arenas, and later words never rewound it.
    for (size_t I = 0; I < RA.Results.size(); ++I) {
      if (RA.Results[I].accepted()) {
        EXPECT_EQ(RA.Results[I].tree()->yield(), Corpus[I]);
      }
    }
  }
}

TEST(BatchParser, ServicePathMatchesParserWithDeadlinesAndPriorities) {
  // The service side carries what the batch mapping strips: per-request
  // deadlines (generous — a minute against microsecond parses, so
  // admission always accepts) and a mixed Interactive/Batch/BestEffort
  // priority cycle. Deadlines walk the admission path and priorities feed
  // shedding bookkeeping, but neither may leak into results — every tree
  // stays bit-identical to a single-threaded Parser's.
  std::mt19937_64 Rng(1313);
  for (int Trial = 0; Trial < 2; ++Trial) {
    Grammar G = randomNonLeftRecursiveGrammar(Rng);
    Parser P(G, 0);
    std::vector<Word> Corpus = sampledCorpus(G, 40, Rng());
    std::vector<ParseResult> Expected;
    for (const Word &W : Corpus)
      Expected.push_back(P.parse(W));

    // Batch-parity service config (mirrors BatchParser::parseAll),
    // except deadline admission stays on so the deadlines below walk
    // the real feasibility path.
    service::ServiceOptions SO;
    SO.Workers = 4;
    SO.PinWorkers = false;
    SO.QueueCapacity = 2 * Corpus.size();
    SO.PublishInterval = 3;
    SO.Retry.MaxRetries = 0;
    SO.BreakerThreshold = 0;
    SO.ShedBestEffortAt = 2.0;
    SO.ShedBatchAt = 2.0;
    service::ParseService S(SO);
    uint32_t Gid = S.addGrammar(G, 0, nullptr, &P.tables());
    S.start();

    const size_t N = Corpus.size();
    std::vector<std::optional<ParseResult>> Buf(N);
    for (size_t I = 0; I < N; ++I) {
      service::Request Req;
      Req.Id = I;
      Req.GrammarId = Gid;
      Req.Input = &Corpus[I];
      switch (I % 3) {
      case 0:
        Req.Class = service::Priority::Interactive;
        break;
      case 1:
        Req.Class = service::Priority::Batch;
        break;
      case 2:
        Req.Class = service::Priority::BestEffort;
        break;
      }
      if (I % 2 == 0)
        Req.Deadline = service::Clock::now() + std::chrono::seconds(60);
      service::ResponseStatus St =
          S.submit(std::move(Req), [&Buf, I](service::Response &&Resp) {
            if (Resp.Result)
              Buf[I] = std::move(*Resp.Result);
          });
      ASSERT_EQ(St, service::ResponseStatus::Done) << "request " << I;
    }
    S.drain();

    for (size_t I = 0; I < N; ++I) {
      ASSERT_TRUE(Buf[I].has_value()) << "request " << I;
      ASSERT_EQ(Buf[I]->kind(), Expected[I].kind()) << "request " << I;
      if (Expected[I].accepted()) {
        EXPECT_TRUE(treeEquals(Buf[I]->tree(), Expected[I].tree()))
            << "request " << I;
      }
    }
  }
}

TEST(BatchParser, EmptyCorpusAndZeroThreads) {
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  workload::BatchParser P(G, S);
  workload::BatchOptions Opts;
  Opts.Threads = 0; // auto
  workload::BatchResult R = P.parseAll({}, Opts);
  EXPECT_TRUE(R.Results.empty());
  EXPECT_EQ(R.Accepted + R.Rejected + R.Errors, 0u);
}
