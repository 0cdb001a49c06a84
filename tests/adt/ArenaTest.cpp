//===- tests/adt/ArenaTest.cpp ----------------------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the epoch arena (adt/Arena.h) and its shared-handle glue
/// (adt/ArenaPtr.h): slab growth (including the zero-capacity edge),
/// finalizer ordering, epoch rewind with slab retention, the pairing of a
/// scratch arena with its result arena (reuse unless a handed-off result
/// holds it), buffer routing by the installed result arena, and the
/// ScopedArena install / restore protocol.
///
//===----------------------------------------------------------------------===//

#include "adt/Arena.h"
#include "adt/ArenaPtr.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

using namespace costar;
using namespace costar::adt;

namespace {

/// Records destruction order into a shared log.
struct Tracked {
  std::vector<int> *Log;
  int Id;
  Tracked(std::vector<int> *Log, int Id) : Log(Log), Id(Id) {}
  ~Tracked() { Log->push_back(Id); }
};

} // namespace

TEST(Arena, BumpAllocationAndAlignment) {
  Arena A;
  void *P1 = A.allocRaw(3, 1);
  void *P2 = A.allocRaw(8, 8);
  void *P3 = A.allocRaw(16, alignof(std::max_align_t));
  EXPECT_NE(P1, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P2) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P3) % alignof(std::max_align_t), 0u);
  EXPECT_TRUE(A.owns(P1));
  EXPECT_TRUE(A.owns(P2));
  EXPECT_TRUE(A.owns(P3));
  int Heap = 0;
  EXPECT_FALSE(A.owns(&Heap));
  EXPECT_EQ(A.bytesAllocated(), 3u + 8u + 16u);
}

TEST(Arena, ZeroCapacityArenaGrows) {
  // An arena constructed with FirstSlabBytes == 0 must still serve
  // requests: growth is floored at MinSlabBytes and at the request size.
  Arena A(0);
  EXPECT_EQ(A.capacity(), 0u);
  void *P = A.allocRaw(1, 1);
  ASSERT_NE(P, nullptr);
  EXPECT_GE(A.capacity(), Arena::MinSlabBytes);
  // An oversized request gets a dedicated slab even mid-sequence.
  void *Big = A.allocRaw(3 * Arena::MaxSlabBytes, 1);
  ASSERT_NE(Big, nullptr);
  EXPECT_TRUE(A.owns(static_cast<char *>(Big) + 3 * Arena::MaxSlabBytes - 1));
  std::memset(Big, 0xAB, 3 * Arena::MaxSlabBytes);
}

TEST(Arena, ResetRunsFinalizersInReverseOrder) {
  std::vector<int> Log;
  Arena A;
  A.create<Tracked>(&Log, 1);
  A.create<Tracked>(&Log, 2);
  A.create<Tracked>(&Log, 3);
  EXPECT_TRUE(Log.empty());
  A.reset();
  EXPECT_EQ(Log, (std::vector<int>{3, 2, 1}));
  // The next epoch starts clean: new finalizers, old ones not re-run.
  A.create<Tracked>(&Log, 4);
  A.reset();
  EXPECT_EQ(Log, (std::vector<int>{3, 2, 1, 4}));
  EXPECT_EQ(A.epoch(), 2u);
}

TEST(Arena, DestructorRunsOutstandingFinalizers) {
  std::vector<int> Log;
  {
    Arena A;
    A.create<Tracked>(&Log, 7);
    A.create<Tracked>(&Log, 8);
  }
  EXPECT_EQ(Log, (std::vector<int>{8, 7}));
}

TEST(Arena, TrivialTypesRegisterNoFinalizers) {
  Arena A;
  int *P = A.create<int>(42);
  EXPECT_EQ(*P, 42);
  uint64_t ObjectsBefore = A.objectsAllocated();
  A.reset();
  EXPECT_EQ(A.objectsAllocated(), ObjectsBefore);
}

TEST(Arena, ResetRetainsSlabsAndReusesThem) {
  Arena A(128);
  // Force growth beyond the first slab.
  for (int I = 0; I < 64; ++I)
    A.allocRaw(64, 8);
  size_t SlabsAfterFirstEpoch = A.slabCount();
  size_t CapacityAfterFirstEpoch = A.capacity();
  EXPECT_GT(SlabsAfterFirstEpoch, 1u);
  // The same workload in the next epoch reuses the retained slabs: no new
  // capacity is acquired (zero-malloc steady state).
  A.reset();
  for (int I = 0; I < 64; ++I)
    A.allocRaw(64, 8);
  EXPECT_EQ(A.slabCount(), SlabsAfterFirstEpoch);
  EXPECT_EQ(A.capacity(), CapacityAfterFirstEpoch);
}

TEST(Arena, NextResultArenaIsReusedUnlessAResultHoldsIt) {
  Arena Scratch;
  EXPECT_EQ(Scratch.pairedResults(), nullptr);
  std::shared_ptr<Arena> First = Scratch.nextResultArena(256);
  EXPECT_EQ(Scratch.pairedResults(), First.get());
  std::shared_ptr<const int> Held =
      Arena::handOff(First, First->create<int>(7));
  const Arena *FirstRaw = First.get();
  First.reset();
  // A live handle pins its arena: the next epoch gets a fresh one, and
  // the held object is untouched.
  std::shared_ptr<Arena> Second = Scratch.nextResultArena(256);
  EXPECT_NE(Second.get(), FirstRaw);
  EXPECT_EQ(*Held, 7);
  Held.reset(); // the first arena dies with its last handle
  // Two handoffs from one epoch hold it until both are dropped.
  std::shared_ptr<const int> H1 =
      Arena::handOff(Second, Second->create<int>(8));
  std::shared_ptr<const int> H2 =
      Arena::handOff(Second, Second->create<int>(9));
  const Arena *SecondRaw = Second.get();
  Second.reset();
  H1.reset();
  std::shared_ptr<Arena> Third = Scratch.nextResultArena(256);
  EXPECT_NE(Third.get(), SecondRaw);
  EXPECT_EQ(*H2, 9);
  // Once nothing holds the paired arena, the next epoch rewinds it and
  // reuses it.
  uint64_t Epoch = Third->epoch();
  const Arena *ThirdRaw = Third.get();
  Third->allocRaw(2000, 8);
  Third.reset();
  std::shared_ptr<Arena> Grown = Scratch.nextResultArena(1024);
  EXPECT_EQ(Grown.get(), ThirdRaw);
  EXPECT_EQ(Grown->epoch(), Epoch + 1);
  // Unless it grew far beyond what the next epoch asks for: then a fresh
  // arena replaces it, so a small result cannot pin large slabs.
  EXPECT_GT(Grown->capacity(), Arena::ReuseFactor * 256);
  std::shared_ptr<Arena> Small = Scratch.nextResultArena(256);
  EXPECT_NE(Small.get(), Grown.get());
  EXPECT_EQ(Small->capacity(), 0u);
}

TEST(ScopedArena, InstallsScratchAndResultArenas) {
  EXPECT_EQ(scratchArena(), nullptr);
  EXPECT_EQ(resultArena(), nullptr);
  Arena S, R;
  {
    ScopedArena Install(&S, &R);
    EXPECT_EQ(scratchArena(), &S);
    EXPECT_EQ(resultArena(), &R);
    {
      // Nested installs restore the outer pair on exit.
      ScopedArena Inner(&R, &S);
      EXPECT_EQ(scratchArena(), &R);
      EXPECT_EQ(resultArena(), &S);
    }
    EXPECT_EQ(scratchArena(), &S);
    EXPECT_EQ(resultArena(), &R);
  }
  EXPECT_EQ(scratchArena(), nullptr);
  EXPECT_EQ(resultArena(), nullptr);
}

TEST(EpochAllocator, RoutesBuffersByOwnership) {
  // A vector grown under an installed result arena holds arena buffers:
  // releasing them while that arena is installed must not touch the heap
  // (the epoch reclaims them). The arena is declared first because it
  // must outlive the containers it backs.
  Arena A;
  {
    ScopedArena Install(nullptr, &A);
    std::vector<int, EpochAllocator<int>> Grown;
    for (int I = 0; I < 100; ++I)
      Grown.push_back(I); // each regrowth frees an arena buffer
    EXPECT_TRUE(A.owns(Grown.data()));
    std::vector<int, EpochAllocator<int>>().swap(Grown);
    EXPECT_EQ(Grown.capacity(), 0u);
    // A heap buffer released under the installed arena still goes back to
    // the heap (LeakSanitizer would report it otherwise).
    std::vector<int, EpochAllocator<int>> *FromHeap;
    {
      ScopedArena Heap(nullptr, nullptr);
      FromHeap = new std::vector<int, EpochAllocator<int>>(100, 1);
    }
    EXPECT_FALSE(A.owns(FromHeap->data()));
    delete FromHeap;
  }
  // With nothing installed, buffers come from and return to the heap.
  std::vector<int, EpochAllocator<int>> HeapVec;
  for (int I = 0; I < 100; ++I)
    HeapVec.push_back(I);
  EXPECT_FALSE(A.owns(HeapVec.data()));
}

TEST(EpochAllocator, CountsBytesOnBothSubstrates) {
  uint64_t Before = AllocationCounters::bytes();
  std::vector<int, EpochAllocator<int>> HeapVec;
  HeapVec.reserve(8);
  EXPECT_GE(AllocationCounters::bytes() - Before, 8 * sizeof(int));
  Arena A;
  {
    ScopedArena Install(nullptr, &A);
    uint64_t Mid = AllocationCounters::bytes();
    std::vector<int, EpochAllocator<int>> ArenaVec;
    ArenaVec.reserve(8);
    EXPECT_GE(AllocationCounters::bytes() - Mid, 8 * sizeof(int));
  }
}

TEST(ArenaRef, NonOwningHandleHasNoControlBlock) {
  Arena A;
  const std::string *S = A.create<std::string>("epoch-owned");
  std::shared_ptr<const std::string> H = arenaRef(S);
  EXPECT_EQ(H.get(), S);
  // Aliased-from-empty handles report use_count 0: no refcount traffic.
  EXPECT_EQ(H.use_count(), 0);
  std::shared_ptr<const std::string> Copy = H;
  EXPECT_EQ(Copy.get(), S);
  EXPECT_EQ(*Copy, "epoch-owned");
}

TEST(EpochNodePolicy, RoutesNodesByInstallState) {
  struct Node {
    int V;
    explicit Node(int V) : V(V) {}
  };
  std::shared_ptr<const Node> HeapNode = EpochNodePolicy::make<Node>(1);
  EXPECT_EQ(HeapNode.use_count(), 1);
  Arena A;
  {
    ScopedArena Install(&A, nullptr);
    std::shared_ptr<const Node> ArenaNode = EpochNodePolicy::make<Node>(2);
    EXPECT_TRUE(A.owns(ArenaNode.get()));
    EXPECT_EQ(ArenaNode.use_count(), 0);
  }
}
