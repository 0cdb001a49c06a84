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
/// the slabs, so a long-lived arena reaches a zero-malloc steady state
/// after the first parse.
///
/// A parse uses two arenas (Machine::run()):
///  - The *scratch* arena (one per Parser, Machine, BatchParser or service
///    worker, or the caller's ParseOptions::AllocArena) holds sim stacks,
///    visited sets and closure work. It is rewound at the start of every
///    run and nothing in it escapes.
///  - The *result* arena holds only tree nodes and their forest buffers.
///    Each scratch arena keeps the result arena of its last parse
///    (nextResultArena()); an accepted result co-owns it (handOff()), and
///    the next parse rewinds it only if no result holds it any more and
///    it is not far larger than that parse needs.
///
/// Lifetime rules:
///  - One mutating thread per arena. Arenas are not thread-safe for
///    allocation; BatchParser and the service give each worker its own.
///    A result arena may be destroyed on any thread: the result that owns
///    it can be dropped anywhere.
///  - reset() runs the registered finalizers (destructors of
///    non-trivially-destructible objects from create()) in reverse order,
///    then rewinds. Anything that must survive an epoch either lives in a
///    result arena that a result holds, or is copied out (SllCache's
///    config detachment for caches that outlive the run).
///  - Machine::run() resets its arenas at the *start* of the run, so the
///    previous parse's machine state stays introspectable until the next
///    parse begins.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_ADT_ARENA_H
#define COSTAR_ADT_ARENA_H

#include "adt/Instrument.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
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

  /// Opens the next result epoch paired with this scratch arena and
  /// \returns its result arena: the one the previous call returned,
  /// rewound, when no handOff() handle to it is alive any more and its
  /// slabs add up to at most ReuseFactor times \p FirstSlabBytes;
  /// otherwise a fresh arena whose first slab is \p FirstSlabBytes. The
  /// size check keeps a small result, which may be held long after, from
  /// pinning slabs an earlier large parse grew. A held arena is left to
  /// the results that hold it.
  std::shared_ptr<Arena> nextResultArena(size_t FirstSlabBytes);
  static constexpr size_t ReuseFactor = 4;

  /// The result arena the last nextResultArena() returned (null before
  /// the first call). For tests and diagnostics.
  const Arena *pairedResults() const { return Results.get(); }

  /// \returns an owning handle to \p Obj, an object in \p Results: the
  /// handle keeps the arena alive, and while any copy of it lives the
  /// arena counts as held, so nextResultArena() will not rewind it. The
  /// hold count is atomic because a result may be dropped on another
  /// thread: that drop happens before the count nextResultArena() reads,
  /// so the holder has finished reading the epoch before it is rewound.
  template <typename T>
  static std::shared_ptr<const T> handOff(std::shared_ptr<Arena> Results,
                                          const T *Obj) {
    Arena *A = Results.get();
    ++A->Holders;
    std::shared_ptr<Arena> Hold(
        A, [Keep = std::move(Results)](Arena *Held) { --Held->Holders; });
    return std::shared_ptr<const T>(std::move(Hold), Obj);
  }

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
  /// On a scratch arena: the result arena of its last parse.
  std::shared_ptr<Arena> Results;
  /// On a result arena: the number of live handOff() handles.
  std::atomic<uint32_t> Holders{0};

  void *allocSlow(size_t Bytes);
};

inline Arena::Arena(size_t FirstSlabBytes) : NextSlabBytes(FirstSlabBytes) {}

inline Arena::~Arena() {
  for (auto It = Finalizers.rbegin(); It != Finalizers.rend(); ++It)
    It->Fn(It->Obj);
  for (const Slab &S : Slabs)
    COSTAR_ARENA_UNPOISON(S.Mem.get(), S.Size);
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
  // an oversized request gets a dedicated slab.
  size_t NewSize = std::max({NextSlabBytes, Bytes, MinSlabBytes});
  NextSlabBytes = std::min(NewSize * 2, MaxSlabBytes);
  Slabs.push_back(Slab{std::unique_ptr<char[]>(new char[NewSize]), NewSize});
  CurSlab = Slabs.size() - 1;
  CurUsed = Bytes;
  return Slabs[CurSlab].Mem.get();
}

inline std::shared_ptr<Arena> Arena::nextResultArena(size_t FirstSlabBytes) {
  if (Results && Results->Holders == 0 &&
      Results->capacity() <= ReuseFactor * FirstSlabBytes)
    Results->reset();
  else
    Results = std::make_shared<Arena>(FirstSlabBytes);
  return Results;
}

} // namespace adt
} // namespace costar

#endif // COSTAR_ADT_ARENA_H
