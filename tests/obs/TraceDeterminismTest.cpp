//===- tests/obs/TraceDeterminismTest.cpp -------------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trace-determinism properties: two runs of the same (grammar, word,
/// backend) produce byte-identical JSONL traces, and a multi-threaded
/// BatchParser's merged trace equals the single-thread trace modulo the
/// sink-stamped thread ids.
///
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "core/Parser.h"
#include "grammar/Sampler.h"
#include "workload/BatchParser.h"

#include "../RandomGrammar.h"
#include "../TestGrammars.h"

#include <gtest/gtest.h>
#include <sstream>

using namespace costar;
using namespace costar::test;

namespace {

std::string jsonlTraceOf(const Grammar &G, NonterminalId S, const Word &W,
                         CacheBackend Backend) {
  std::ostringstream Out;
  obs::JsonlTracer Sink(Out);
  ParseOptions Opts;
  Opts.Backend = Backend;
  Opts.Trace = &Sink;
  Parser P(G, S, Opts);
  (void)P.parse(W);
  Sink.flush();
  return Out.str();
}

std::vector<Word> figure2Corpus(const Grammar &G, size_t N) {
  std::vector<Word> Corpus;
  for (size_t I = 0; I < N; ++I) {
    std::string Text;
    for (size_t K = 0; K < I % 6; ++K)
      Text += "a ";
    Text += (I % 2 == 0) ? "b c" : "b d";
    if (I % 7 == 0)
      Text += " c"; // some rejecting words too
    Corpus.push_back(makeWord(G, Text));
  }
  return Corpus;
}

} // namespace

TEST(TraceDeterminism, RepeatedRunsProduceByteIdenticalJsonl) {
  std::mt19937_64 Rng(424242);
  for (int Trial = 0; Trial < 25; ++Trial) {
    Grammar G = randomNonLeftRecursiveGrammar(Rng);
    GrammarAnalysis A(G, 0);
    DerivationSampler Sampler(A, Rng());
    Word W = Sampler.sampleWord(0, 5);
    if (W.size() > 40)
      continue;
    if (Trial % 2 == 1)
      W = corruptWord(Rng, G, W);
    for (CacheBackend Backend :
         {CacheBackend::AvlPaperFaithful, CacheBackend::Hashed}) {
      std::string First = jsonlTraceOf(G, 0, W, Backend);
      std::string Second = jsonlTraceOf(G, 0, W, Backend);
      ASSERT_FALSE(First.empty());
      ASSERT_EQ(First, Second)
          << "nondeterministic trace on grammar:\n"
          << G.toString();
    }
  }
}

TEST(TraceDeterminism, BatchMergeEqualsSingleThreadModuloThreadIds) {
  // With ShareCache off, every word parses against a fresh cache, so each
  // word's events are word-deterministic regardless of which worker runs
  // it: the 4-thread merged trace (ordered by word index) must match the
  // 1-thread trace fact-for-fact, differing at most in the Thread stamps.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  std::vector<Word> Corpus = figure2Corpus(G, 40);
  workload::BatchParser BP(G, S);

  workload::BatchOptions Single;
  Single.Threads = 1;
  Single.ShareCache = false;
  Single.CollectTrace = true;
  workload::BatchResult R1 = BP.parseAll(Corpus, Single);

  workload::BatchOptions Multi = Single;
  Multi.Threads = 4;
  workload::BatchResult R4 = BP.parseAll(Corpus, Multi);

  EXPECT_EQ(R1.TraceDropped, 0u);
  EXPECT_EQ(R4.TraceDropped, 0u);
  ASSERT_EQ(R1.Trace.size(), R4.Trace.size());
  for (size_t I = 0; I < R1.Trace.size(); ++I) {
    ASSERT_EQ(R1.Trace[I].Word, R4.Trace[I].Word) << "event #" << I;
    ASSERT_TRUE(obs::sameFact(R1.Trace[I], R4.Trace[I]))
        << "event #" << I << ": single " << obs::toJsonl(R1.Trace[I])
        << ", multi " << obs::toJsonl(R4.Trace[I]);
  }
  // No cache-exchange events when sharing is off.
  for (const obs::TraceEvent &E : R1.Trace)
    EXPECT_NE(E.Word, UINT32_MAX);

  // Results are deterministic too (the existing batch guarantee).
  ASSERT_EQ(R1.Results.size(), R4.Results.size());
  for (size_t I = 0; I < R1.Results.size(); ++I)
    EXPECT_EQ(R1.Results[I].kind(), R4.Results[I].kind());
}

TEST(TraceDeterminism, SharedCacheBatchTracesCompletelyAndConsistently) {
  // With ShareCache on, cache warmth (hence hit/miss events) depends on
  // which worker drew which word, so traces are not cross-run comparable
  // — but they must still be complete (no drops), well-formed per word
  // (begin and end present), and the parse results stay deterministic. This is
  // also the TSan target for concurrent tracing.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  std::vector<Word> Corpus = figure2Corpus(G, 48);
  workload::BatchParser BP(G, S);

  workload::BatchOptions Opts;
  Opts.Threads = 4;
  Opts.ShareCache = true;
  Opts.PublishInterval = 4;
  Opts.CollectTrace = true;
  Opts.CollectMetrics = true;
  workload::BatchResult R = BP.parseAll(Corpus, Opts);

  EXPECT_EQ(R.TraceDropped, 0u);
  EXPECT_EQ(R.Metrics.counter("parse.count"), Corpus.size());

  // Per word: exactly one ParseBegin and one ParseEnd, begin first, all
  // events contiguous and stamped with a single thread id.
  size_t Begins = 0, Ends = 0, Publishes = 0;
  std::vector<int> SeenWord(Corpus.size(), -1);
  uint32_t CurWord = UINT32_MAX;
  for (const obs::TraceEvent &E : R.Trace) {
    if (E.Word == UINT32_MAX) {
      Publishes += E.Kind == obs::EventKind::CachePublish;
      continue;
    }
    ASSERT_LT(E.Word, Corpus.size());
    if (E.Word != CurWord) {
      // First event of a word's block: must be ParseBegin, and the word
      // must not have appeared before (contiguity).
      EXPECT_EQ(E.Kind, obs::EventKind::ParseBegin);
      EXPECT_EQ(SeenWord[E.Word], -1) << "word " << E.Word << " split";
      SeenWord[E.Word] = static_cast<int>(E.Thread);
      CurWord = E.Word;
    } else {
      EXPECT_EQ(static_cast<int>(E.Thread), SeenWord[E.Word])
          << "word " << E.Word << " crossed threads";
    }
    Begins += E.Kind == obs::EventKind::ParseBegin;
    Ends += E.Kind == obs::EventKind::ParseEnd;
  }
  EXPECT_EQ(Begins, Corpus.size());
  EXPECT_EQ(Ends, Corpus.size());
  // Every worker publishes at least its final cache.
  EXPECT_GE(Publishes, 1u);

  // Determinism of results under sharing (the batch guarantee, retraced).
  workload::BatchResult Again = BP.parseAll(Corpus, Opts);
  ASSERT_EQ(R.Results.size(), Again.Results.size());
  for (size_t I = 0; I < R.Results.size(); ++I)
    EXPECT_EQ(R.Results[I].kind(), Again.Results[I].kind());
}
