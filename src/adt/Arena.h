//===- adt/Arena.h - Bump/slab epoch arena ---------------------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer slab arena with epoch semantics, the allocation substrate
/// behind ParseOptions' AllocBackend::Arena. Section 6.1 of the paper
/// attributes CoStar's slowdown on small grammars largely to GC churn; the
/// C++ port inherits that cost as one heap allocation plus atomic refcount
/// traffic per parse-tree node, subparser stack node, and frame forest. An
/// Arena replaces all of that with a pointer bump: allocations live until
/// the next epoch reset(), which rewinds the bump pointer while *retaining*
/// the slabs, so a long-lived arena (one per Parser, one per BatchParser
/// worker thread) reaches a zero-malloc steady state after the first parse.
///
/// Lifetime rules:
///  - One mutating thread per arena. Arenas are not thread-safe for
///    allocation; BatchParser gives each worker its own. Destruction may
///    happen on any thread (a parse result that co-owns its epoch under
///    ParseOptions::DetachResults == false can be dropped anywhere), so
///    the live-arena registry behind ownedByLiveArena() is global and
///    lock-protected.
///  - reset() runs the registered finalizers (destructors of
///    non-trivially-destructible objects from create()) in reverse order,
///    then rewinds. Anything that must survive an epoch is either
///    deep-copied out (Tree::detach(), SllCache's config detachment) or
///    keeps the whole epoch alive by sharing ownership of the arena
///    (Machine/Parser epoch handoff).
///  - Machine::run() resets its arena at the *start* of the run, so the
///    previous parse's machine state stays introspectable until the next
///    parse begins. An epoch that escaped into a result is never reset —
///    the owner swaps in a fresh arena instead.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_ADT_ARENA_H
#define COSTAR_ADT_ARENA_H

#include "adt/Instrument.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <shared_mutex>
#include <type_traits>
#include <vector>

// Under AddressSanitizer a rewound epoch is poisoned until it is handed out
// again, so a read through a handle that outlived its epoch is reported
// instead of silently seeing the next epoch's objects.
#if defined(__SANITIZE_ADDRESS__)
#define COSTAR_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define COSTAR_ARENA_ASAN 1
#endif
#endif
#ifdef COSTAR_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#define COSTAR_ARENA_POISON(Addr, Size) ASAN_POISON_MEMORY_REGION(Addr, Size)
#define COSTAR_ARENA_UNPOISON(Addr, Size)                                      \
  ASAN_UNPOISON_MEMORY_REGION(Addr, Size)
#else
#define COSTAR_ARENA_POISON(Addr, Size) ((void)(Addr), (void)(Size))
#define COSTAR_ARENA_UNPOISON(Addr, Size) ((void)(Addr), (void)(Size))
#endif

namespace costar {
namespace adt {

class Arena {
public:
  /// Default size of the first slab. Subsequent slabs double up to
  /// MaxSlabBytes.
  static constexpr size_t DefaultFirstSlabBytes = 1u << 16;
  static constexpr size_t MinSlabBytes = 64;
  static constexpr size_t MaxSlabBytes = 1u << 22;

  explicit Arena(size_t FirstSlabBytes = DefaultFirstSlabBytes);
  ~Arena();

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Bump-allocates \p Bytes with the given power-of-two alignment. The
  /// returned storage lives until the next reset() (or destruction).
  void *allocRaw(size_t Bytes, size_t Align) {
    assert(Align != 0 && (Align & (Align - 1)) == 0 &&
           "alignment must be a power of two");
    assert(Align <= alignof(std::max_align_t) &&
           "over-aligned arena allocations are not supported");
    AllocationCounters::bytes() += Bytes;
    LifetimeBytes += Bytes;
    if (CurSlab < Slabs.size()) {
      size_t Aligned = (CurUsed + Align - 1) & ~(Align - 1);
      if (Aligned + Bytes <= Slabs[CurSlab].Size) {
        CurUsed = Aligned + Bytes;
        COSTAR_ARENA_UNPOISON(Slabs[CurSlab].Mem.get() + Aligned, Bytes);
        return Slabs[CurSlab].Mem.get() + Aligned;
      }
    }
    return allocSlow(Bytes);
  }

  /// Constructs a \p T in the arena. Non-trivially-destructible objects
  /// register a finalizer that reset() runs (in reverse creation order), so
  /// owning members — shared_ptr tails, token lexemes, forest buffers —
  /// are released even though the memory itself is only rewound.
  template <typename T, typename... ArgTs> T *create(ArgTs &&...Args) {
    void *Mem = allocRaw(sizeof(T), alignof(T));
    T *Obj = new (Mem) T(std::forward<ArgTs>(Args)...);
    ++LifetimeObjects;
    if constexpr (!std::is_trivially_destructible_v<T>)
      Finalizers.push_back(
          Finalizer{[](void *P) { static_cast<T *>(P)->~T(); }, Obj});
    return Obj;
  }

  /// Constructs a \p T in the arena *without* registering a finalizer: the
  /// destructor never runs. Only valid when T's destructor is a no-op for
  /// this instance — every owning-looking member must hold a null control
  /// block (arenaRef) or borrow storage that outlives the epoch. The parse
  /// hot paths (sim-stack nodes, visited-set AVL nodes) satisfy this by
  /// construction; LeakSanitizer catches violations (a skipped owning
  /// member shows up as a leaked refcount).
  template <typename T, typename... ArgTs>
  T *createUnmanaged(ArgTs &&...Args) {
    void *Mem = allocRaw(sizeof(T), alignof(T));
    ++LifetimeObjects;
    return new (Mem) T(std::forward<ArgTs>(Args)...);
  }

  /// Ends the current epoch: runs finalizers in reverse order, rewinds the
  /// bump pointer, and retains every slab for reuse. O(live finalizers),
  /// no frees.
  void reset() {
    for (auto It = Finalizers.rbegin(); It != Finalizers.rend(); ++It)
      It->Fn(It->Obj);
    Finalizers.clear();
    for (const Slab &S : Slabs)
      COSTAR_ARENA_POISON(S.Mem.get(), S.Size);
    CurSlab = 0;
    CurUsed = 0;
    ++EpochCount;
  }

  /// \returns true if \p P points into one of this arena's slabs.
  bool owns(const void *P) const {
    auto Addr = reinterpret_cast<uintptr_t>(P);
    for (const Slab &S : Slabs) {
      auto Base = reinterpret_cast<uintptr_t>(S.Mem.get());
      if (Addr >= Base && Addr < Base + S.Size)
        return true;
    }
    return false;
  }

  /// \returns true if \p P is owned by any live arena, on any thread.
  /// EpochAllocator uses this to route deallocations: arena-backed buffers
  /// are reclaimed by the epoch, everything else goes back to the heap.
  /// Deterministic because arenas retain their slabs until destruction,
  /// and correct across threads (shared-locked global registry) because a
  /// handed-off epoch may be destroyed far from the thread that filled it.
  static bool ownedByLiveArena(const void *P);

  uint64_t epoch() const { return EpochCount; }
  uint64_t bytesAllocated() const { return LifetimeBytes; }
  uint64_t objectsAllocated() const { return LifetimeObjects; }
  size_t slabCount() const { return Slabs.size(); }
  /// Total slab capacity in bytes (retained across resets).
  size_t capacity() const {
    size_t Total = 0;
    for (const Slab &S : Slabs)
      Total += S.Size;
    return Total;
  }

private:
  struct Slab {
    std::unique_ptr<char[]> Mem;
    size_t Size;
  };
  struct Finalizer {
    void (*Fn)(void *);
    void *Obj;
  };

  std::vector<Slab> Slabs;
  /// Index of the slab currently being bumped (== Slabs.size() when none).
  size_t CurSlab = 0;
  size_t CurUsed = 0;
  size_t NextSlabBytes;
  std::vector<Finalizer> Finalizers;
  uint64_t LifetimeBytes = 0;
  uint64_t LifetimeObjects = 0;
  uint64_t EpochCount = 0;

  void *allocSlow(size_t Bytes);
};

/// The global live-arena registry behind ownedByLiveArena(). Registration
/// and slab growth take the lock exclusively (both rare: arena creation
/// and the logarithmic slab-doubling tail); cross-thread ownership probes
/// take it shared. Same-thread probes of the *active* arena (the
/// EpochAllocator fast path) stay lock-free — only the arena's own thread
/// ever bumps or grows it.
struct ArenaRegistry {
  std::shared_mutex Mutex;
  std::vector<Arena *> Arenas;
};

inline ArenaRegistry &arenaRegistry() {
  static ArenaRegistry Registry;
  return Registry;
}

inline Arena::Arena(size_t FirstSlabBytes) : NextSlabBytes(FirstSlabBytes) {
  ArenaRegistry &R = arenaRegistry();
  std::unique_lock<std::shared_mutex> Lock(R.Mutex);
  R.Arenas.push_back(this);
}

inline Arena::~Arena() {
  // Finalizers run while the arena is still registered: a finalized
  // container's buffer deallocation must still route to "epoch-owned".
  for (auto It = Finalizers.rbegin(); It != Finalizers.rend(); ++It)
    It->Fn(It->Obj);
  for (const Slab &S : Slabs)
    COSTAR_ARENA_UNPOISON(S.Mem.get(), S.Size);
  ArenaRegistry &R = arenaRegistry();
  std::unique_lock<std::shared_mutex> Lock(R.Mutex);
  for (size_t I = 0; I < R.Arenas.size(); ++I)
    if (R.Arenas[I] == this) {
      R.Arenas.erase(R.Arenas.begin() + I);
      break;
    }
}

inline void *Arena::allocSlow(size_t Bytes) {
  // Walk forward through slabs retained from previous epochs before
  // growing. Slab bases carry fundamental alignment, so offset 0 is
  // aligned for any supported request.
  for (size_t Next = CurSlab + 1; Next < Slabs.size(); ++Next)
    if (Bytes <= Slabs[Next].Size) {
      CurSlab = Next;
      CurUsed = Bytes;
      COSTAR_ARENA_UNPOISON(Slabs[Next].Mem.get(), Bytes);
      return Slabs[Next].Mem.get();
    }
  // Grow: doubling sizes, floored so a zero-capacity arena still grows and
  // an oversized request gets a dedicated slab. The push_back takes the
  // registry lock exclusively: other threads may be walking this Slabs
  // vector through ownedByLiveArena() at the same moment.
  size_t NewSize = std::max({NextSlabBytes, Bytes, MinSlabBytes});
  NextSlabBytes = std::min(NewSize * 2, MaxSlabBytes);
  Slab New{std::unique_ptr<char[]>(new char[NewSize]), NewSize};
  {
    ArenaRegistry &R = arenaRegistry();
    std::unique_lock<std::shared_mutex> Lock(R.Mutex);
    Slabs.push_back(std::move(New));
  }
  CurSlab = Slabs.size() - 1;
  CurUsed = Bytes;
  return Slabs[CurSlab].Mem.get();
}

inline bool Arena::ownedByLiveArena(const void *P) {
  ArenaRegistry &R = arenaRegistry();
  std::shared_lock<std::shared_mutex> Lock(R.Mutex);
  for (Arena *A : R.Arenas)
    if (A->owns(P))
      return true;
  return false;
}

} // namespace adt
} // namespace costar

#endif // COSTAR_ADT_ARENA_H
