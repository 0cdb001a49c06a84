//===- core/Prediction.h - ALL(*) adaptivePredict --------------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ALL(*) prediction mechanism (Section 3.4 of the paper). When the
/// machine's top stack symbol is a nonterminal X, adaptivePredict chooses a
/// right-hand side by launching one subparser per production of X and
/// advancing them in lockstep over the remaining tokens.
///
/// Two strategies, combined exactly as in the paper:
///
///  - LL prediction simulates the parser precisely: subparser stacks start
///    as a copy of the real suffix stack, so LL identifies all and only the
///    viable right-hand sides. No caching.
///
///  - SLL prediction is faster but imprecise: subparser stacks contain only
///    the candidate right-hand side, and when a stack empties the subparser
///    simulates a return to *statically computed* stable caller frames (the
///    CoStar variant of ANTLR's wildcard stack; see Section 3.5). Analysis
///    steps are cached in a DFA keyed per decision nonterminal.
///
/// adaptivePredict first runs SLL; a unique or reject answer is trusted
/// (SLL overapproximates LL), while an ambiguous answer may be an artifact
/// of the overapproximation, so prediction fails over to LL mode. An LL
/// AmbigP result is genuine input ambiguity and flips the machine's
/// uniqueness flag.
///
/// Both modes detect left recursion dynamically, just like the top-level
/// machine (the paper factors the same lemmata across both proofs). The
/// paper gives each subparser its own visited set; here closure derives it
/// from the subparser's stack instead (see Simulator in Prediction.cpp),
/// so a cached config is just a prediction and a stack.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_CORE_PREDICTION_H
#define COSTAR_CORE_PREDICTION_H

#include "adt/HashIndex.h"
#include "adt/Prefetch.h"
#include "core/Frame.h"
#include "core/ParseResult.h"
#include "grammar/Analysis.h"
#include "grammar/Token.h"

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace costar {

namespace obs {
class Tracer;
} // namespace obs

//===----------------------------------------------------------------------===//
// Subparsers
//===----------------------------------------------------------------------===//

/// One frame of a subparser's simulation stack: a right-hand side and a
/// position within it. Syms caches the symbol storage for Prod (or the
/// machine's synthesized start sequence when Prod is InvalidProductionId).
struct SimFrame {
  ProductionId Prod = InvalidProductionId;
  const std::vector<Symbol> *Syms = nullptr;
  uint32_t Pos = 0;

  bool done() const { return Pos == Syms->size(); }
  Symbol headSymbol() const {
    assert(!done() && "headSymbol() on an exhausted sim frame");
    return (*Syms)[Pos];
  }
};

struct SimStackNode;
/// Immutable shared stack: forks during closure share their tails (CoStar
/// forgoes ANTLR's graph-structured stack but still shares tails this way).
using SimStackPtr = std::shared_ptr<const SimStackNode>;

struct SimStackNode {
  SimFrame F;
  SimStackPtr Tail;
  /// Hash-consed structural hash of the whole stack: mixing (Prod, Pos)
  /// onto the tail's hash makes a subparser's identity hash O(1) to read
  /// instead of O(stack depth) to serialize (Section 6.1's hot path).
  uint64_t Hash;

  static uint64_t hashOnto(uint64_t TailHash, const SimFrame &F) {
    return adt::mix64(TailHash ^
                      adt::mix64((static_cast<uint64_t>(F.Prod) << 32) |
                                 F.Pos));
  }

  SimStackNode(SimFrame F, SimStackPtr Tail)
      : F(F), Tail(std::move(Tail)),
        Hash(hashOnto(this->Tail ? this->Tail->Hash : 0x5DEECE66Dull, F)) {}
};

/// Creates a sim-stack node on the parse's allocation substrate: the
/// installed scratch arena (as a non-owning handle) when there is one, an
/// owning make_shared otherwise. Prediction's closure forks dominate worst-case
/// allocation, so this is one of the three ported hot sites; the counters
/// live here rather than in the constructor so epoch-escaping deep copies
/// (SllCache's config detachment) stay invisible to budgets and stats and
/// the node count is identical across allocation backends.
inline SimStackPtr makeSimStack(SimFrame F, SimStackPtr Tail) {
  ++adt::AllocationCounters::nodes();
  if (adt::Arena *A = adt::scratchArena()) {
    // The tail is either another arena node of this epoch (non-owning
    // arenaRef already) or a node of a cached DFA state, which lives at
    // least as long as the epoch: an epoch-local cache keeps this epoch's
    // arena nodes, and every other cache detaches its configs to the heap
    // at intern. So the arena node *borrows* its tail instead of
    // refcounting it, and no finalizer is needed: the node's destructor
    // would be a no-op.
    return adt::arenaRef(A->createUnmanaged<SimStackNode>(
        F, SimStackPtr(SimStackPtr(), Tail.get())));
  }
  adt::AllocationCounters::bytes() +=
      sizeof(SimStackNode) + adt::SharedCtrlBlockBytes;
  return std::make_shared<const SimStackNode>(F, std::move(Tail));
}

/// Structural equality of two simulation stacks, short-circuiting on
/// shared tails (forks produced by closure share tails by construction, so
/// most comparisons terminate after a frame or two).
inline bool simStackEquals(const SimStackNode *A, const SimStackNode *B) {
  for (; A != B; A = A->Tail.get(), B = B->Tail.get()) {
    if (!A || !B || A->F.Prod != B->F.Prod || A->F.Pos != B->F.Pos)
      return false;
    // Both walks chase unrelated heap/arena nodes; overlap the two next
    // loads with this frame's comparison.
    adt::prefetchRead(A->Tail.get());
    adt::prefetchRead(B->Tail.get());
  }
  return true;
}

/// A subparser theta = (gamma, Psi): the prediction it carries plus its
/// simulation stack. A null Stack means the subparser has completed an
/// entire simulated parse ("final"); it survives only if the token sequence
/// is exhausted at that point. The paper's per-subparser visited set is
/// not stored: it only matters inside one closure, which derives it from
/// the stack.
struct Subparser {
  ProductionId Prediction = InvalidProductionId;
  SimStackPtr Stack;
};

/// Serializes a subparser's (prediction, stack) identity as words: the
/// AvlPaperFaithful cache's DFA-state keys, whose comparisons are the
/// Section 6.1 cost profile.
void serializeSubparser(const Subparser &Sp, std::vector<uint32_t> &Out);

/// O(1) identity hash of a subparser's (prediction, stack), reading the
/// hash-consed stack hash. Consistent with subparserEquals.
inline uint64_t subparserHash(ProductionId Prediction,
                              const SimStackNode *Stack) {
  uint64_t StackHash = Stack ? Stack->Hash : 0xFEEDFACEull;
  return adt::mix64(StackHash ^ Prediction);
}
inline uint64_t subparserHash(const Subparser &Sp) {
  return subparserHash(Sp.Prediction, Sp.Stack.get());
}

/// Structural identity of two subparsers, matching serializeSubparser.
inline bool subparserEquals(const Subparser &A, const Subparser &B) {
  return A.Prediction == B.Prediction &&
         simStackEquals(A.Stack.get(), B.Stack.get());
}

/// A DFA state's configs are stored in one canonical order: ascending
/// subparserHash, hash ties broken by this structural comparison — by
/// prediction, then frame by frame from the top of the stack down as
/// (Prod, Pos), a stack that runs out first (the shorter one) ordering
/// first. Together a strict total order on structural identity, computed
/// without serializing a stack. \returns <0, 0 or >0; 0 exactly when
/// subparserEquals holds.
int compareSubparsers(const Subparser &A, const Subparser &B);

//===----------------------------------------------------------------------===//
// Static prediction tables
//===----------------------------------------------------------------------===//

/// Grammar-derived static tables for SLL prediction: for each nonterminal
/// X, the stable frames an empty-stack subparser returns to when a rule for
/// X is exhausted (every grammar occurrence of X, with chains of
/// end-of-rule occurrences resolved transitively), and whether end-of-input
/// may follow X (in which case the empty-stack subparser may also be final).
class PredictionTables {
  const Grammar &G;
  std::vector<std::vector<SimFrame>> ReturnTargets;
  std::vector<bool> CanFinishNt;

public:
  PredictionTables(const Grammar &G, const GrammarAnalysis &A);

  const Grammar &grammar() const { return G; }
  const std::vector<SimFrame> &returnTargets(NonterminalId X) const {
    return ReturnTargets[X];
  }
  bool canFinish(NonterminalId X) const { return CanFinishNt[X]; }
};

//===----------------------------------------------------------------------===//
// SLL DFA cache
//===----------------------------------------------------------------------===//

/// Counting comparator for DFA-cache keys (Section 6.1's profile shows key
/// comparisons dominating CoStar's runtime on large grammars).
struct CacheKeyLess {
  bool operator()(const std::vector<uint32_t> &A,
                  const std::vector<uint32_t> &B) const {
    ++adt::ComparisonCounters::cacheKey();
    return std::lexicographical_compare(A.begin(), A.end(), B.begin(),
                                        B.end());
  }
};

struct CacheU64Less {
  bool operator()(uint64_t A, uint64_t B) const {
    ++adt::ComparisonCounters::cacheKey();
    return A < B;
  }
};

/// Which data structures index the SLL DFA cache. Both backends produce
/// bit-identical parse results (enforced by the differential tests); they
/// differ only in lookup cost.
enum class CacheBackend {
  /// Persistent AVL maps, mirroring the FMapAVL-based cache of the Coq
  /// development — the paper-profile ablation baseline, with the same
  /// comparison-dominated cost profile as Section 6.1.
  AvlPaperFaithful,
  /// Open-addressing hash indexes over hash-consed subparser stacks
  /// (adt/HashIndex.h): O(1) expected per cache operation. States are
  /// interned by their folded config hashes and verified structurally,
  /// never serialized.
  Hashed,
};

/// The DFA cache for SLL prediction. States are canonicalized sets of SLL
/// subparsers (configs in the canonical order of compareSubparsers);
/// transitions are keyed by (state, terminal). The index structures are
/// chosen by CacheBackend; state ids, contents, and every observable
/// prediction are identical across backends.
///
/// Where a cache lives decides whether intern() copies configs out of the
/// parse's epoch arena. A cache that outlives the run that fills it (a
/// Parser's ReuseCache cache, BatchParser and service worker caches, a
/// snapshot-training cache) deep-copies each new state's arena sim stacks
/// to the heap. A Machine's own cache is destroyed before its arena can
/// be rewound, so the Machine marks it epoch-local (setEpochLocal) and
/// its states keep the arena stacks closure built, copying nothing.
class SllCache {
public:
  /// How a DFA state resolves prediction if reached mid-input.
  enum class Resolution { Pending, Unique, Reject };

  struct DfaState {
    /// The stable/final subparsers this state denotes.
    std::vector<Subparser> Configs;
    Resolution Res = Resolution::Pending;
    ProductionId UniquePred = InvalidProductionId;
    /// Distinct predictions of final (empty-stack) configs, ascending.
    std::vector<ProductionId> FinalPreds;

    DfaState() = default;
    DfaState(DfaState &&) = default;
    DfaState &operator=(DfaState &&) = default;
    // Deep copies are counted: the snapshot/publish regression test pins
    // that copying a cache value no longer re-copies unchanged states.
    DfaState(const DfaState &Other)
        : Configs(Other.Configs), Res(Other.Res),
          UniquePred(Other.UniquePred), FinalPreds(Other.FinalPreds) {
      ++copies();
    }
    DfaState &operator=(const DfaState &Other) {
      if (this != &Other) {
        Configs = Other.Configs;
        Res = Other.Res;
        UniquePred = Other.UniquePred;
        FinalPreds = Other.FinalPreds;
        ++copies();
      }
      return *this;
    }

    /// Thread-local count of deep DfaState copies (tests only).
    static uint64_t &copies() {
      thread_local uint64_t Count = 0;
      return Count;
    }
  };

  /// Append-only DFA state storage with O(1) structural sharing: states
  /// live in fixed-size chunks held by shared_ptr, so copying the table
  /// (SharedSllCache snapshot/publish/adopt) copies chunk *pointers*, not
  /// states. push_back clones only a partially-filled last chunk that
  /// has ever been shared with a copy (copy-on-write; at most
  /// ChunkSize - 1 DfaState copies per divergence, independent of cache
  /// size). Copying a table freezes its partial tail chunk, and a frozen
  /// or full chunk is never written again, so chunks are safe to share
  /// across threads. (A use_count() == 1 test would not be: it does not
  /// order the write after another thread's last read of the chunk.)
  class DfaStateTable {
    static constexpr size_t ChunkShift = 6;
    static constexpr size_t ChunkCap = size_t(1) << ChunkShift;
    struct Chunk {
      std::vector<DfaState> Items;
      /// Set by any table copy that shares this chunk; atomic because
      /// threads copying one immutable snapshot set it concurrently.
      std::atomic<bool> Frozen{false};
    };
    std::vector<std::shared_ptr<Chunk>> Chunks;
    size_t Count = 0;

    void freezeTail() const {
      if (Count & (ChunkCap - 1))
        Chunks.back()->Frozen.store(true, std::memory_order_relaxed);
    }

  public:
    DfaStateTable() = default;
    DfaStateTable(const DfaStateTable &Other)
        : Chunks(Other.Chunks), Count(Other.Count) {
      freezeTail();
    }
    DfaStateTable &operator=(const DfaStateTable &Other) {
      Chunks = Other.Chunks;
      Count = Other.Count;
      freezeTail();
      return *this;
    }
    DfaStateTable(DfaStateTable &&) = default;
    DfaStateTable &operator=(DfaStateTable &&) = default;

    size_t size() const { return Count; }

    const DfaState &operator[](size_t I) const {
      assert(I < Count && "DFA state id out of range");
      return Chunks[I >> ChunkShift]->Items[I & (ChunkCap - 1)];
    }

    void push_back(DfaState St) {
      if (Count & (ChunkCap - 1)) {
        std::shared_ptr<Chunk> &Last = Chunks.back();
        if (Last->Frozen.load(std::memory_order_relaxed)) {
          auto Fresh = std::make_shared<Chunk>();
          Fresh->Items.reserve(ChunkCap);
          Fresh->Items = Last->Items;
          Last = std::move(Fresh);
        }
        Last->Items.push_back(std::move(St));
      } else {
        auto Fresh = std::make_shared<Chunk>();
        Fresh->Items.reserve(ChunkCap);
        Fresh->Items.push_back(std::move(St));
        Chunks.push_back(std::move(Fresh));
      }
      ++Count;
    }
  };

private:
  CacheBackend Backend = CacheBackend::Hashed;
  DfaStateTable States;
  // AvlPaperFaithful indexes (empty under the Hashed backend).
  adt::PersistentMap<std::vector<uint32_t>, uint32_t, CacheKeyLess> AvlIntern;
  adt::PersistentMap<uint64_t, uint32_t, CacheU64Less> AvlTransitions;
  adt::PersistentMap<NonterminalId, uint32_t, CompareNT> AvlStartStates;
  // Hashed indexes (empty under the AvlPaperFaithful backend).
  adt::HashIdIndex HashIntern;
  adt::HashIndex HashTransitions;
  adt::HashIndex HashStartStates;
  /// See setEpochLocal.
  bool EpochLocal = false;

  /// Stores \p Canonical, already in canonical order and known to be new
  /// under \p StateHash (Hashed) or \p FlatKey (AvlPaperFaithful), as the
  /// next state: detaches arena stacks, computes the resolution and the
  /// final predictions, and indexes it. \returns the new id.
  uint32_t addState(std::vector<Subparser> Canonical, uint64_t StateHash,
                    std::vector<uint32_t> FlatKey);

public:
  SllCache() = default;
  explicit SllCache(CacheBackend Backend) : Backend(Backend) {}

  uint64_t Hits = 0;
  uint64_t Misses = 0;

  CacheBackend backend() const { return Backend; }

  /// Interns \p Configs, in any order, as a DFA state whose Configs are
  /// in canonical order (compareSubparsers), computing its resolution;
  /// returns the existing id when the same config set is already known.
  /// New ids are dense, in insertion order.
  uint32_t intern(std::vector<Subparser> Configs);

  /// Why appendCanonical refused a config list.
  enum class AppendResult { Appended, NotCanonical, Duplicate };

  /// Appends \p Configs as the next DFA state, trusting nothing about
  /// them: the list must already be in canonical order with no config
  /// twice (checked in one linear pass; nothing is re-sorted), and no
  /// known state may hold the same configs. The resolution and final
  /// predictions are computed as intern() computes them, so the state
  /// equals the one intern() would build from the same configs. This is
  /// the snapshot loader's entry point (src/snapshot/), the same for
  /// both backends. A refused list leaves the cache unchanged.
  AppendResult appendCanonical(std::vector<Subparser> Configs);

  /// Marks this cache as living inside one arena epoch: it is destroyed
  /// before the arena that built its states is rewound, so intern() keeps
  /// arena sim stacks instead of detaching them. Only Machine sets it, on
  /// the cache it owns. Copies carry the flag, since they share the same
  /// arena stacks and so the same lifetime.
  void setEpochLocal() { EpochLocal = true; }

  const DfaState &state(uint32_t Id) const {
    assert(Id < States.size() && "DFA state id out of range");
    return States[Id];
  }

  std::optional<uint32_t> findStart(NonterminalId X) const;
  void recordStart(NonterminalId X, uint32_t Id);

  std::optional<uint32_t> findTransition(uint32_t From, TerminalId T) const;
  void recordTransition(uint32_t From, TerminalId T, uint32_t To);

  size_t numStates() const { return States.size(); }
  uint64_t numTransitions() const {
    return Backend == CacheBackend::Hashed ? HashTransitions.size()
                                           : AvlTransitions.size();
  }

  /// Visits every cached start-state binding (X, state id) in ascending
  /// nonterminal order, regardless of backend. This is the serialization
  /// path used by the warm-start snapshot writer (src/snapshot/): the
  /// hashed backend's raw index iterates in probe order, which depends on
  /// capacity-growth history, so enumerating it directly would make
  /// snapshot bytes nondeterministic; the bindings are collected and
  /// sorted by key instead, and the AVL backend's in-order walk is routed
  /// through the same sort so both backends enumerate identically.
  void forEachStart(
      const std::function<void(NonterminalId, uint32_t)> &Fn) const;

  /// Visits every cached DFA transition (from, terminal, to) in ascending
  /// (from, terminal) order, regardless of backend. Deterministic for the
  /// same reason as forEachStart; the byte-determinism regression test
  /// (tests/snapshot/) pins that two identically trained caches serialize
  /// to identical bytes.
  void forEachTransition(
      const std::function<void(uint32_t, TerminalId, uint32_t)> &Fn) const;
};

//===----------------------------------------------------------------------===//
// Prediction entry points
//===----------------------------------------------------------------------===//

/// Per-parse prediction statistics (used by benches and ablations).
struct PredictionStats {
  uint64_t Predictions = 0;
  uint64_t SllPredictions = 0;
  uint64_t Failovers = 0;
};

/// LL prediction for decision nonterminal \p X. \p MachineStack is the
/// machine's frame stack (bottom to top; the top frame's head symbol must
/// be X), \p Visited the machine's visited set, which must be the left-hand
/// sides of the top |Visited| frames (checkMachineInvariants), and
/// \p Input / \p Pos the remaining token sequence. \p Budget, when armed,
/// is ticked per closure round and per simulated token; a tripped budget
/// surfaces as an Error result carrying ParseErrorKind::BudgetExceeded,
/// which the machine converts to the structured BudgetExceeded outcome.
PredictionResult llPredict(const Grammar &G, NonterminalId X,
                           std::span<const Frame> MachineStack,
                           const VisitedSet &Visited, const Word &Input,
                           size_t Pos, robust::BudgetTracker *Budget = nullptr);

/// SLL prediction for decision nonterminal \p X, caching analysis steps in
/// \p Cache. An Ambig result means "multiple right-hand sides survived under
/// the stack overapproximation" and must trigger LL failover. \p Trace,
/// when non-null, receives an SllCacheHit/SllCacheMiss event per DFA
/// lookup (obs/Trace.h). \p Budget as for llPredict.
PredictionResult sllPredict(const Grammar &G, const PredictionTables &Tables,
                            SllCache &Cache, NonterminalId X,
                            const Word &Input, size_t Pos,
                            obs::Tracer *Trace = nullptr,
                            robust::BudgetTracker *Budget = nullptr);

/// The combined ALL(*) prediction routine: SLL first, failing over to LL
/// when SLL reports ambiguity. Unique/Reject/Error SLL results are final.
/// \p Trace, when non-null, additionally receives SllCacheConflict and
/// LlFallback events when the failover fires.
PredictionResult adaptivePredict(const Grammar &G,
                                 const PredictionTables &Tables,
                                 SllCache &Cache, NonterminalId X,
                                 std::span<const Frame> MachineStack,
                                 const VisitedSet &Visited, const Word &Input,
                                 size_t Pos,
                                 PredictionStats *Stats = nullptr,
                                 obs::Tracer *Trace = nullptr,
                                 robust::BudgetTracker *Budget = nullptr);

} // namespace costar

#endif // COSTAR_CORE_PREDICTION_H
