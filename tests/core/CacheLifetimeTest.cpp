//===- tests/core/CacheLifetimeTest.cpp -----------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lifetime of SLL cache states across rewinds of one epoch arena. A
/// Machine's own cache is epoch-local: its states keep the arena sim
/// stacks closure built and die with the machine, before the arena is
/// rewound. Every other cache outlives the run, so its new states are
/// copied to the heap at intern. This suite drives every kind of run over
/// one shared arena and reads cache states after each, and holds some
/// results across all later runs; under AddressSanitizer the arena
/// poisons a rewound epoch, so any read of an arena stack or tree node
/// that outlived its epoch is reported.
///
//===----------------------------------------------------------------------===//

#include "core/Parser.h"
#include "grammar/Sampler.h"
#include "lang/Language.h"
#include "robust/Degradation.h"

#include <gtest/gtest.h>

using namespace costar;

namespace {

struct StackCensus {
  uint64_t Frames = 0;
  uint64_t InArena = 0;
};

/// Walks every frame of every config stack in \p Cache.
StackCensus census(const SllCache &Cache, const adt::Arena &Epoch) {
  StackCensus C;
  for (uint32_t Id = 0; Id < Cache.numStates(); ++Id)
    for (const Subparser &Sp : Cache.state(Id).Configs)
      for (const SimStackNode *N = Sp.Stack.get(); N; N = N->Tail.get()) {
        ++C.Frames;
        C.InArena += Epoch.owns(N);
      }
  return C;
}

} // namespace

TEST(CacheLifetime, CachesSurviveRewindsOfOneSharedArena) {
  lang::Language L = lang::makeLanguage(lang::LangId::Json);
  GrammarAnalysis A(L.G, L.Start);
  PredictionTables Tables(L.G, A);
  DerivationSampler Sampler(A, 11);
  std::vector<Word> Words;
  while (Words.size() < 16) {
    Word W = Sampler.sampleWord(L.Start, 8);
    if (W.size() <= 400)
      Words.push_back(std::move(W));
  }
  // Reference trees from the heap-only backend.
  ParseOptions Heap;
  Heap.Alloc = adt::AllocBackend::SharedPtrPaperFaithful;
  Parser Reference(L.G, L.Start, Heap);

  // One persistent arena under every run below; each run rewinds it.
  adt::Arena Epoch;
  ParseOptions Default;
  Default.AllocArena = &Epoch;
  ParseOptions Reuse = Default;
  Reuse.ReuseCache = true;
  Parser Reusing(L.G, L.Start, Reuse);
  SllCache Shared(CacheBackend::Hashed);

  uint64_t EpochLocalArenaFrames = 0;
  // Results held across every later rewind of the shared arena, with the
  // reference trees they must still equal at the end.
  std::vector<std::pair<ParseResult, TreePtr>> Held;
  for (size_t I = 0; I < Words.size(); ++I) {
    const Word &W = Words[I];
    TreePtr Expected = Reference.parse(W).tree();
    ASSERT_TRUE(Expected);
    switch (I % 4) {
    case 0:
    case 1: {
      // Default machines: their own caches are epoch-local, read here
      // after run() and before the next rewind. Every other one's result
      // is kept past all later rewinds.
      Machine M(L.G, Tables, L.Start, W, Default);
      ParseResult R = M.run();
      ASSERT_TRUE(R.accepted());
      EXPECT_TRUE(Tree::equals(*R.tree(), *Expected));
      StackCensus C = census(M.cache(), Epoch);
      EXPECT_GT(M.cache().numStates(), 0u);
      EpochLocalArenaFrames += C.InArena;
      if (I % 4)
        Held.emplace_back(std::move(R), Expected);
      break;
    }
    case 2: {
      // A cache that outlives the run: the Parser's reused cache.
      ParseResult R = Reusing.parse(W);
      ASSERT_TRUE(R.accepted());
      EXPECT_TRUE(Tree::equals(*R.tree(), *Expected));
      break;
    }
    case 3: {
      // A Hashed-backend fault downgrades to a second machine on the same
      // arena, whose run rewinds it after the first attempt died.
      robust::FaultInjector Injector(
          robust::FaultPlan::at(robust::FaultSite::HashedCacheProbe, 1));
      ParseOptions Faulty = Default;
      Faulty.Faults = &Injector;
      robust::RobustOutcome Out =
          robust::parseRobust(L.G, Tables, L.Start, W, Faulty, &Shared);
      EXPECT_TRUE(Out.Downgraded);
      ASSERT_TRUE(Out.Result.accepted());
      EXPECT_TRUE(Tree::equals(*Out.Result.tree(), *Expected));
      // And a clean run that warms the shared cache on the same arena.
      Machine M(L.G, Tables, L.Start, W, Default, &Shared);
      ASSERT_TRUE(M.run().accepted());
      break;
    }
    }
    // Long-lived caches are read after every run, so after every rewind:
    // they must hold no arena frame at all.
    StackCensus Reused = census(Reusing.sharedCache(), Epoch);
    StackCensus Warm = census(Shared, Epoch);
    EXPECT_EQ(Reused.InArena, 0u);
    EXPECT_EQ(Warm.InArena, 0u);
  }
  EXPECT_GT(census(Reusing.sharedCache(), Epoch).Frames, 0u);
  EXPECT_GT(census(Shared, Epoch).Frames, 0u);
  // The epoch-local caches copied nothing: their states kept arena stacks.
  EXPECT_GT(EpochLocalArenaFrames, 0u);
  // Held results own their trees: no rewind of the shared arena touched
  // them.
  ASSERT_FALSE(Held.empty());
  for (const auto &[R, Expected] : Held)
    EXPECT_TRUE(Tree::equals(*R.tree(), *Expected));
}
