//===- tests/adt/HashIndexTest.cpp -------------------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and reference-model tests for the open-addressing indexes backing
/// the Hashed SLL-cache backend (adt/HashIndex.h). The DFA-state interner
/// (HashIdIndex) is tested through SllCache::intern in PredictionTest.
///
//===----------------------------------------------------------------------===//

#include "adt/HashIndex.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

using namespace costar::adt;

TEST(HashIndex, EmptyFindsNothing) {
  HashIndex Idx;
  EXPECT_EQ(Idx.size(), 0u);
  EXPECT_TRUE(Idx.empty());
  EXPECT_EQ(Idx.find(0), nullptr);
  EXPECT_EQ(Idx.find(UINT64_MAX), nullptr);
}

TEST(HashIndex, InsertFindRoundTrip) {
  HashIndex Idx;
  Idx.insert(42, 7);
  ASSERT_NE(Idx.find(42), nullptr);
  EXPECT_EQ(*Idx.find(42), 7u);
  EXPECT_EQ(Idx.find(43), nullptr);
  EXPECT_EQ(Idx.size(), 1u);
}

TEST(HashIndex, MatchesReferenceMapThroughGrowth) {
  // Keys shaped like DFA transition keys: (state << 32) | terminal, with
  // dense sequential states — the adversarial case for a weak mixer.
  HashIndex Idx;
  std::map<uint64_t, uint32_t> Ref;
  std::mt19937_64 Rng(123);
  for (uint32_t State = 0; State < 500; ++State) {
    for (uint32_t T = 0; T < 4; ++T) {
      uint64_t Key = (static_cast<uint64_t>(State) << 32) | T;
      uint32_t Value = static_cast<uint32_t>(Rng() % 1000000);
      Idx.insert(Key, Value);
      Ref[Key] = Value;
    }
  }
  EXPECT_EQ(Idx.size(), Ref.size());
  for (const auto &[Key, Value] : Ref) {
    ASSERT_NE(Idx.find(Key), nullptr) << Key;
    EXPECT_EQ(*Idx.find(Key), Value) << Key;
  }
  for (int I = 0; I < 1000; ++I) {
    uint64_t Probe = Rng();
    const uint32_t *Found = Idx.find(Probe);
    auto It = Ref.find(Probe);
    EXPECT_EQ(Found != nullptr, It != Ref.end());
  }
}

TEST(HashIndex, CountsProbes) {
  ComparisonCounters::reset();
  HashIndex Idx;
  Idx.insert(1, 1);
  (void)Idx.find(1);
  EXPECT_GT(ComparisonCounters::hashProbe(), 0u);
  ComparisonCounters::reset();
  EXPECT_EQ(ComparisonCounters::hashProbe(), 0u);
}
