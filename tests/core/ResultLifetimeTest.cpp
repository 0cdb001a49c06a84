//===- tests/core/ResultLifetimeTest.cpp ------------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-thread lifetime of parse results. An accepted result co-owns the
/// result arena its tree was built in, so it can be dropped on any thread,
/// and the parser that built it reuses that arena once it is dropped. This
/// binary is labeled sanitizer-heavy so CI runs it under ASan/UBSan (a
/// read of a rewound epoch is reported) and TSan (a drop that does not
/// happen before the reuse is reported).
///
//===----------------------------------------------------------------------===//

#include "core/Parser.h"

#include "../TestGrammars.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

using namespace costar;
using namespace costar::test;

TEST(AllocLifetime, EpochHandoffSurvivesCrossThreadDestruction) {
  // A producer thread parses and hands each result to this thread, which
  // reads and drops it while the producer keeps parsing: every drop lets
  // the producer rewind and reuse that result arena. The producer's Parser
  // is destroyed while results are still queued, so the last ones outlive
  // it.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  const std::vector<Word> Words = {makeWord(G, "a a b c"),
                                   makeWord(G, "b d"),
                                   makeWord(G, "a a a a a b c")};
  constexpr size_t Parses = 300;
  std::mutex M;
  std::condition_variable Cv;
  std::deque<std::pair<size_t, ParseResult>> Queue;
  bool Done = false;
  std::thread Producer([&] {
    Parser P(G, S);
    for (size_t I = 0; I < Parses; ++I) {
      ParseResult R = P.parse(Words[I % Words.size()]);
      {
        std::lock_guard<std::mutex> Lock(M);
        Queue.emplace_back(I % Words.size(), std::move(R));
      }
      Cv.notify_one();
    }
    std::lock_guard<std::mutex> Lock(M);
    Done = true;
    Cv.notify_one();
  });
  size_t Checked = 0;
  for (;;) {
    std::unique_lock<std::mutex> Lock(M);
    Cv.wait(Lock, [&] { return !Queue.empty() || Done; });
    if (Queue.empty())
      break;
    std::pair<size_t, ParseResult> Item = std::move(Queue.front());
    Queue.pop_front();
    Lock.unlock();
    ASSERT_EQ(Item.second.kind(), ParseResult::Kind::Unique);
    EXPECT_EQ(Item.second.tree()->yield(), Words[Item.first]);
    ++Checked;
  } // each result is dropped here, on this thread
  Producer.join();
  EXPECT_EQ(Checked, Parses);
}

TEST(AllocLifetime, ResultsBuiltOnOneThreadDieOnAnother) {
  // The whole batch is held until the producer and its Parser are gone,
  // then dropped here: every result arena is destroyed on a thread other
  // than the one that filled it.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  Word W = makeWord(G, "a a b c");
  std::vector<ParseResult> Held;
  std::thread Producer([&] {
    Parser P(G, S);
    for (int I = 0; I < 20; ++I)
      Held.push_back(P.parse(W));
  });
  Producer.join();
  ASSERT_EQ(Held.size(), 20u);
  for (const ParseResult &R : Held) {
    ASSERT_EQ(R.kind(), ParseResult::Kind::Unique);
    EXPECT_EQ(R.tree()->yield(), W);
  }
  Held.clear();
}
