//===- adt/ArenaPtr.h - Arena-aware shared handles -------------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Glue between the epoch Arena and the codebase's shared_ptr-shaped handle
/// types (TreePtr, SimStackPtr, persistent-map nodes), so switching
/// allocation backends changes no type signatures:
///
///  - AllocBackend selects the substrate per parse (ParseOptions::Alloc),
///    mirroring how CacheBackend dual-backs the SLL cache.
///  - ScopedArena installs a thread-local pair of arenas for the duration
///    of one Machine::run(), the same pattern as
///    robust::ScopedFaultInjector: scratchArena() for sim stacks and
///    visited sets, resultArena() for tree nodes and forest buffers.
///  - arenaRef() wraps an arena-owned object in a *non-owning* aliased
///    shared_ptr (null control block): copies are two plain words with no
///    atomic refcount traffic, and destruction is a no-op — the epoch owns
///    the object.
///  - EpochAllocator routes forest buffers into the installed result
///    arena.
///  - EpochNodePolicy routes PersistentMap/PersistentSet nodes (the
///    machine's visited sets), which churn on every push/return, into the
///    installed scratch arena.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_ADT_ARENAPTR_H
#define COSTAR_ADT_ARENAPTR_H

#include "adt/Arena.h"

#include <cstddef>
#include <memory>
#include <utility>

namespace costar {
namespace adt {

/// Which substrate allocates parse-path nodes (trees, sim stacks, frame
/// forests, visited-set nodes). Both backends produce bit-identical parse
/// results (enforced by AllocEquivalenceTest); they differ only in
/// allocation cost and in when memory is reclaimed.
enum class AllocBackend {
  /// One heap allocation + shared_ptr refcounting per node — the faithful
  /// stand-in for the extracted OCaml implementation's GC sharing, and the
  /// ablation baseline for bench_alloc.
  SharedPtrPaperFaithful,
  /// Parse-scoped epoch arena (adt/Arena.h): nodes are bump-allocated and
  /// reclaimed wholesale when the next parse begins. The default.
  Arena,
};

inline const char *allocBackendName(AllocBackend B) {
  switch (B) {
  case AllocBackend::SharedPtrPaperFaithful:
    return "sharedptr";
  case AllocBackend::Arena:
    return "arena";
  }
  return "unknown";
}

/// The arenas installed on this thread. Both null when parse-path
/// allocations should fall back to the heap.
struct InstalledArenas {
  Arena *Scratch = nullptr;
  Arena *Result = nullptr;
};

inline InstalledArenas &installedArenas() {
  thread_local InstalledArenas Installed;
  return Installed;
}

inline Arena *scratchArena() { return installedArenas().Scratch; }
inline Arena *resultArena() { return installedArenas().Result; }

/// RAII installation of a scratch and a result arena as the thread's
/// allocation targets (Machine::run() holds one for the duration of the
/// parse); the previous pair is restored on destruction.
class ScopedArena {
  InstalledArenas Prev;

public:
  ScopedArena(Arena *Scratch, Arena *Result) : Prev(installedArenas()) {
    installedArenas() = InstalledArenas{Scratch, Result};
  }
  ~ScopedArena() { installedArenas() = Prev; }
  ScopedArena(const ScopedArena &) = delete;
  ScopedArena &operator=(const ScopedArena &) = delete;
};

/// Estimated per-node bookkeeping overhead of the shared_ptr substrate
/// (control block), used so AllocationCounters::bytes() stays comparable
/// across backends. An estimate by necessity: the exact figure is a
/// library implementation detail.
constexpr uint64_t SharedCtrlBlockBytes = 16;

/// Wraps an arena-owned object in a non-owning shared handle: the aliasing
/// constructor with an empty owner yields a shared_ptr with no control
/// block, so copies cost two word moves and destruction is free. The
/// pointee's lifetime is the arena epoch's.
template <typename T>
std::shared_ptr<const T> arenaRef(const T *Obj) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>(), Obj);
}

/// A stateless STL allocator that bump-allocates from the thread's
/// installed result arena, and from the heap when none is installed. A
/// buffer the installed arena owns is freed with the epoch, so
/// deallocate() skips it; every other buffer goes back to the heap. That
/// routing is exact because arena buffers are only ever released while
/// their arena is installed: tree nodes in an arena are never destroyed
/// (leaves own no buffer), and a Machine tears down the frames it still
/// holds inside its own ScopedArena.
template <typename T> struct EpochAllocator {
  using value_type = T;

  EpochAllocator() = default;
  template <typename U> EpochAllocator(const EpochAllocator<U> &) {}

  T *allocate(size_t N) {
    size_t Bytes = N * sizeof(T);
    if (Arena *A = resultArena())
      return static_cast<T *>(A->allocRaw(Bytes, alignof(T)));
    AllocationCounters::bytes() += Bytes;
    return static_cast<T *>(::operator new(Bytes));
  }

  void deallocate(T *P, size_t) {
    if (Arena *A = resultArena(); A && A->owns(P))
      return;
    ::operator delete(P);
  }

  friend bool operator==(const EpochAllocator &, const EpochAllocator &) {
    return true;
  }
  friend bool operator!=(const EpochAllocator &, const EpochAllocator &) {
    return false;
  }
};

/// PersistentMap node policy that allocates path-copy nodes from the
/// installed scratch arena (as non-owning handles) when there is one.
/// Only safe for maps that never outlive the epoch — the machine's and
/// subparsers' visited sets qualify (cached DFA configs carry *empty*
/// visited sets, asserted at intern time); the SLL cache's own AVL indexes
/// must keep the default heap policy because caches outlive parses.
struct EpochNodePolicy {
  template <typename NodeT, typename... ArgTs>
  static std::shared_ptr<const NodeT> make(ArgTs &&...Args) {
    // Arena nodes skip finalizer registration (createUnmanaged): a set
    // built inside an epoch only ever links to nodes of the same epoch,
    // so every child handle is a no-op-destructor arenaRef and the node's
    // destructor has nothing to do. This holds for the visited sets
    // because they start empty each parse and cached DFA configs carry
    // empty visited sets (asserted at intern).
    if (Arena *A = scratchArena())
      return arenaRef(A->createUnmanaged<NodeT>(std::forward<ArgTs>(Args)...));
    return std::make_shared<const NodeT>(std::forward<ArgTs>(Args)...);
  }
};

} // namespace adt
} // namespace costar

#endif // COSTAR_ADT_ARENAPTR_H
