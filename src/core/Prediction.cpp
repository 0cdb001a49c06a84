//===- core/Prediction.cpp - ALL(*) adaptivePredict ------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Prediction.h"

#include "obs/Trace.h"

#include <algorithm>

using namespace costar;

/// Serialization sentinel terminating a frame list. Distinct from
/// InvalidProductionId (the machine's bottom frame id), which may appear in
/// LL stacks.
static constexpr uint32_t SerialEnd = 0xFFFFFFFEu;

void costar::serializeSubparser(const Subparser &Sp,
                                std::vector<uint32_t> &Out) {
  Out.push_back(Sp.Prediction);
  for (const SimStackNode *N = Sp.Stack.get(); N; N = N->Tail.get()) {
    // Stack nodes are hash-consed heap/arena objects with no layout
    // correlation, so the next link is a guaranteed cache miss on deep
    // stacks; start its load while this frame serializes.
    adt::prefetchRead(N->Tail.get());
    assert(N->F.Prod != SerialEnd && "production id collides with sentinel");
    Out.push_back(N->F.Prod);
    Out.push_back(N->F.Pos);
  }
  Out.push_back(SerialEnd);
}

int costar::compareSubparsers(const Subparser &A, const Subparser &B) {
  if (A.Prediction != B.Prediction)
    return A.Prediction < B.Prediction ? -1 : 1;
  const SimStackNode *X = A.Stack.get(), *Y = B.Stack.get();
  for (; X != Y; X = X->Tail.get(), Y = Y->Tail.get()) {
    if (!X || !Y)
      return X ? 1 : -1;
    if (X->F.Prod != Y->F.Prod)
      return X->F.Prod < Y->F.Prod ? -1 : 1;
    if (X->F.Pos != Y->F.Pos)
      return X->F.Pos < Y->F.Pos ? -1 : 1;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// PredictionTables
//===----------------------------------------------------------------------===//

PredictionTables::PredictionTables(const Grammar &Grammar,
                                   const GrammarAnalysis &A)
    : G(Grammar) {
  uint32_t N = G.numNonterminals();
  ReturnTargets.assign(N, {});
  CanFinishNt.assign(N, false);
  for (NonterminalId X = 0; X < N; ++X)
    CanFinishNt[X] = A.followEnd(X);

  // Direct return targets: for each occurrence of X at (r, p), an
  // empty-stack subparser finishing a rule for X resumes at (r, p + 1) when
  // that position is not at the end of r. Occurrences at the end of r are
  // "union edges": finishing X there immediately finishes r, so X inherits
  // the return targets of r's left-hand side. We resolve the union edges by
  // fixpoint iteration (the occurrence graph may be cyclic).
  std::vector<std::vector<NonterminalId>> UnionEdges(N);
  auto AddTarget = [&](NonterminalId X, SimFrame F) {
    std::vector<SimFrame> &Targets = ReturnTargets[X];
    for (const SimFrame &Existing : Targets)
      if (Existing.Prod == F.Prod && Existing.Pos == F.Pos)
        return false;
    Targets.push_back(F);
    return true;
  };

  for (ProductionId Id = 0; Id < G.numProductions(); ++Id) {
    const Production &P = G.production(Id);
    for (uint32_t Pos = 0; Pos < P.Rhs.size(); ++Pos) {
      if (!P.Rhs[Pos].isNonterminal())
        continue;
      NonterminalId X = P.Rhs[Pos].nonterminalId();
      if (Pos + 1 < P.Rhs.size())
        AddTarget(X, SimFrame{Id, &P.Rhs, Pos + 1});
      else
        UnionEdges[X].push_back(P.Lhs);
    }
  }

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (NonterminalId X = 0; X < N; ++X) {
      for (NonterminalId Y : UnionEdges[X]) {
        // Copy: AddTarget may reallocate ReturnTargets[X] while we read
        // ReturnTargets[Y] when X == Y.
        std::vector<SimFrame> FromY = ReturnTargets[Y];
        for (const SimFrame &F : FromY)
          Changed |= AddTarget(X, F);
        if (CanFinishNt[Y] && !CanFinishNt[X]) {
          CanFinishNt[X] = true;
          Changed = true;
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Closure and move
//===----------------------------------------------------------------------===//

namespace {

enum class SimMode { LL, SLL };

struct ClosureOut {
  std::vector<Subparser> Configs;
  std::optional<ParseError> Err;
};

/// One closure work item: a subparser plus what closure needs to detect
/// left recursion. The paper's per-subparser visited set (Section 4.1) is
/// always the set of left-hand sides of the frames pushed since the last
/// move and still on the stack: a push adds its nonterminal with the new
/// frame, a return removes the left-hand side of the frame it pops, and a
/// move empties it. So it is carried implicitly. Depth counts those top
/// frames; Mask is a 64-bit summary of their left-hand sides, a superset
/// that may keep bits of frames already returned from, so that most
/// pushes are cleared without walking the stack.
struct SimItem {
  ProductionId Prediction;
  uint32_t Depth;
  uint64_t Mask;
  SimStackPtr Stack;
};

uint64_t maskBit(NonterminalId X) { return uint64_t(1) << (X & 63); }

/// closure's dedup set over (prediction, stack) identities, kept per thread
/// so that a closure allocates nothing once the table has grown to its
/// working size. It is emptied by bumping a generation stamp, the same
/// pattern as DetachScratch below. A probe compares the O(1) hash-consed
/// identity hash, then the prediction, then the stacks structurally
/// (short-circuiting on shared tails).
///
/// simStackEquals holds on pointer equality, so an entry must never
/// outlive its stack node: a node freed mid-closure could be reallocated
/// at the same address for a different stack. Arena nodes live until the
/// epoch is rewound, and the heap nodes of cached states live as long as
/// the cache; but without a scratch arena every node is an owning
/// make_shared, and the popped item may hold the only reference. So in
/// that case the table pins each stack it records until release().
class ClosureSeen {
  struct Entry {
    uint64_t Hash = 0;
    const SimStackNode *Stack = nullptr;
    ProductionId Prediction = 0;
    uint32_t Gen = 0;
  };
  std::vector<Entry> Table; // power-of-two size, at most half full
  std::vector<SimStackPtr> Pinned;
  uint32_t Gen = 0;
  size_t Count = 0;
  bool Pin = false;

  void place(const Entry &E) {
    size_t I = static_cast<size_t>(E.Hash) & (Table.size() - 1);
    while (Table[I].Gen == Gen)
      I = (I + 1) & (Table.size() - 1);
    Table[I] = E;
  }

  void grow() {
    std::vector<Entry> Old = std::move(Table);
    // Fresh entries carry stamp 0, never the live one.
    Table.assign(std::max<size_t>(256, Old.size() * 2), Entry{});
    for (const Entry &E : Old)
      if (E.Gen == Gen)
        place(E);
  }

public:
  /// Forgets every recorded subparser. \p PinStacks: the stacks are owning
  /// heap handles (no scratch arena is installed).
  void reset(bool PinStacks) {
    Count = 0;
    Pin = PinStacks;
    if (++Gen == 0) { // the stamp wrapped: old entries would read as live
      std::fill(Table.begin(), Table.end(), Entry{});
      Gen = 1;
    }
  }

  /// Drops the pins taken since reset().
  void release() { Pinned.clear(); }

  /// Records (\p Prediction, \p Stack). \returns false if an equal
  /// subparser was already recorded since reset().
  bool insert(ProductionId Prediction, const SimStackPtr &Stack) {
    uint64_t Hash = subparserHash(Prediction, Stack.get());
    if ((Count + 1) * 2 > Table.size())
      grow();
    size_t I = static_cast<size_t>(Hash) & (Table.size() - 1);
    for (;; I = (I + 1) & (Table.size() - 1)) {
      const Entry &E = Table[I];
      if (E.Gen != Gen)
        break;
      if (E.Hash == Hash && E.Prediction == Prediction &&
          simStackEquals(E.Stack, Stack.get()))
        return false;
    }
    Table[I] = Entry{Hash, Stack.get(), Prediction, Gen};
    ++Count;
    if (Pin && Stack)
      Pinned.push_back(Stack);
    return true;
  }
};

/// Shared subparser simulation engine for both prediction modes. The
/// worklist is a member so that its buffer is reused across every closure
/// round of one prediction call instead of being reallocated per
/// simulated token.
class Simulator {
  const Grammar &G;
  const PredictionTables *Tables; // non-null iff Mode == SLL
  SimMode Mode;
  robust::BudgetTracker *Budget; // may be null (no budget checking)
  std::vector<SimItem> Work;

  /// Whether pushing \p Y from \p It reopens a nonterminal of its visited
  /// set: the left-hand side of one of its top Depth frames.
  bool reopens(const SimItem &It, NonterminalId Y) const {
    if (!(It.Mask & maskBit(Y)))
      return false;
    const SimStackNode *N = It.Stack.get();
    for (uint32_t I = 0; I < It.Depth; ++I, N = N->Tail.get()) {
      assert(N && N->F.Prod != InvalidProductionId &&
             "visited frames must be pushed grammar frames");
      if (G.production(N->F.Prod).Lhs == Y)
        return true;
    }
    return false;
  }

  /// Drains the worklist into \p Out; see closure().
  void run(ClosureSeen &Seen, ClosureOut &Out) {
    while (!Work.empty()) {
      // Closure rounds, not machine steps, dominate worst-case prediction
      // work, so the budget is ticked here too.
      if (Budget) {
        if (std::optional<robust::BudgetReason> R = Budget->tick()) {
          Out.Err = ParseError::budgetExceeded(*R);
          return;
        }
      }
      SimItem It = std::move(Work.back());
      Work.pop_back();
      if (!Seen.insert(It.Prediction, It.Stack))
        continue;

      if (!It.Stack) {
        Out.Configs.push_back(Subparser{It.Prediction, nullptr});
        continue;
      }
      const SimFrame &Top = It.Stack->F;
      if (Top.done()) {
        if (Top.Prod == InvalidProductionId) {
          // The simulated machine's bottom frame is exhausted: the whole
          // parse completed (LL mode only; SLL stacks never hold it).
          assert(Mode == SimMode::LL && !It.Stack->Tail &&
                 "bottom frame must be the lowest LL sim frame");
          Out.Configs.push_back(Subparser{It.Prediction, nullptr});
          continue;
        }
        // The popped frame leaves the visited frames if it was one of them.
        uint32_t Depth = It.Depth ? It.Depth - 1 : 0;
        uint64_t Mask = Depth ? It.Mask : 0;
        if (It.Stack->Tail) {
          // Ordinary return: advance the caller past the open nonterminal.
          SimFrame Caller = It.Stack->Tail->F;
          assert(!Caller.done() && Caller.headSymbol().isNonterminal() &&
                 "caller frame has no open nonterminal");
          Caller.Pos += 1;
          Work.push_back(SimItem{It.Prediction, Depth, Mask,
                                 makeSimStack(Caller, It.Stack->Tail->Tail)});
          continue;
        }
        // Empty-stack return: simulate a return to the statically computed
        // stable caller frames (the SLL overapproximation, Section 3.5).
        // The returned-to frames were never pushed, so nothing is visited.
        assert(Mode == SimMode::SLL &&
               "LL subparser stack emptied below the bottom frame");
        NonterminalId Lhs = G.production(Top.Prod).Lhs;
        if (Tables->canFinish(Lhs))
          Work.push_back(SimItem{It.Prediction, 0, 0, nullptr});
        for (const SimFrame &Target : Tables->returnTargets(Lhs))
          Work.push_back(
              SimItem{It.Prediction, 0, 0, makeSimStack(Target, nullptr)});
        continue;
      }

      Symbol Head = Top.headSymbol();
      if (Head.isTerminal()) {
        Out.Configs.push_back(Subparser{It.Prediction, std::move(It.Stack)});
        continue;
      }
      NonterminalId Y = Head.nonterminalId();
      if (reopens(It, Y)) {
        Out.Err = ParseError::leftRecursive(Y);
        return;
      }
      for (ProductionId P : G.productionsFor(Y))
        Work.push_back(SimItem{
            It.Prediction, It.Depth + 1, It.Mask | maskBit(Y),
            makeSimStack(SimFrame{P, &G.production(P).Rhs, 0}, It.Stack)});
    }
  }

public:
  Simulator(const Grammar &G, const PredictionTables *Tables, SimMode Mode,
            robust::BudgetTracker *Budget = nullptr)
      : G(G), Tables(Tables), Mode(Mode), Budget(Budget) {
    assert((Mode == SimMode::SLL) == (Tables != nullptr) &&
           "SLL simulation requires prediction tables");
  }

  /// Seeds the worklist with one subparser per production of \p X, each
  /// pushed on \p Base with \p Depth visited frames summarized by \p Mask
  /// (the new frame included); follow with closure().
  void seed(NonterminalId X, const SimStackPtr &Base, uint32_t Depth,
            uint64_t Mask) {
    Work.clear();
    for (ProductionId P : G.productionsFor(X))
      Work.push_back(SimItem{
          P, Depth, Mask,
          makeSimStack(SimFrame{P, &G.production(P).Rhs, 0}, Base)});
  }

  /// Consumes terminal \p T, seeding the worklist for the next closure():
  /// stable subparsers whose head matches advance (with nothing visited);
  /// all others, including finals, die.
  void moveInto(const std::vector<Subparser> &Configs, TerminalId T) {
    Work.clear();
    for (const Subparser &Sp : Configs) {
      if (!Sp.Stack)
        continue;
      const SimFrame &Top = Sp.Stack->F;
      Symbol Head = Top.headSymbol();
      assert(Head.isTerminal() && "move on a non-stable subparser");
      if (Head.terminalId() != T)
        continue;
      SimFrame Advanced = Top;
      Advanced.Pos += 1;
      Work.push_back(SimItem{Sp.Prediction, 0, 0,
                             makeSimStack(Advanced, Sp.Stack->Tail)});
    }
  }

  /// Advances every seeded subparser until it is stable (head symbol is
  /// a terminal) or final (stack empty), forking at nonterminals and
  /// performing returns at exhausted frames. Detects left recursion via the
  /// stack-derived visited sets. Drains the worklist seeded by seed() or
  /// moveInto().
  ClosureOut closure() {
    thread_local ClosureSeen Seen;
    Seen.reset(/*PinStacks=*/adt::scratchArena() == nullptr);
    ClosureOut Out;
    run(Seen, Out);
    Seen.release();
    return Out;
  }
};

/// Distinct predictions carried by \p Configs, ascending.
std::vector<ProductionId>
distinctPredictions(const std::vector<Subparser> &Configs) {
  std::vector<ProductionId> Preds;
  for (const Subparser &Sp : Configs)
    Preds.push_back(Sp.Prediction);
  std::sort(Preds.begin(), Preds.end());
  Preds.erase(std::unique(Preds.begin(), Preds.end()), Preds.end());
  return Preds;
}

/// Distinct predictions of final (empty-stack) configs, ascending.
std::vector<ProductionId>
distinctFinalPredictions(const std::vector<Subparser> &Configs) {
  std::vector<ProductionId> Preds;
  for (const Subparser &Sp : Configs)
    if (!Sp.Stack)
      Preds.push_back(Sp.Prediction);
  std::sort(Preds.begin(), Preds.end());
  Preds.erase(std::unique(Preds.begin(), Preds.end()), Preds.end());
  return Preds;
}

/// Shared end-of-input resolution: only subparsers that completed an entire
/// simulated parse survive; ties of two or more predictions mean ambiguity.
PredictionResult resolveAtEndOfInput(const std::vector<ProductionId> &Finals) {
  if (Finals.empty())
    return PredictionResult::reject();
  if (Finals.size() == 1)
    return PredictionResult::unique(Finals[0]);
  return PredictionResult::ambig(Finals[0]);
}

} // namespace

//===----------------------------------------------------------------------===//
// LL prediction
//===----------------------------------------------------------------------===//

PredictionResult costar::llPredict(const Grammar &G, NonterminalId X,
                                   std::span<const Frame> MachineStack,
                                   const VisitedSet &Visited,
                                   const Word &Input, size_t Pos,
                                   robust::BudgetTracker *Budget) {
  assert(!MachineStack.empty() && "LL prediction with an empty stack");
  assert(MachineStack.back().headSymbol() == Symbol::nonterminal(X) &&
         "decision nonterminal is not the top stack symbol");

  // Mirror the machine's suffix stack, bottom to top; the decision
  // nonterminal stays open in the top frame.
  SimStackPtr Base;
  for (const Frame &F : MachineStack)
    Base = makeSimStack(SimFrame{F.Prod, F.Syms, static_cast<uint32_t>(F.Next)},
                        Base);

  // The machine's visited set is the left-hand sides of its top |Visited|
  // frames, so the seeds' visited frames are those plus their own.
  assert(Visited.size() < MachineStack.size() &&
         "visited set larger than the pushed frames");
  uint64_t Mask = maskBit(X);
  Visited.forEach([&](NonterminalId V) { Mask |= maskBit(V); });
  Simulator Sim(G, nullptr, SimMode::LL, Budget);
  Sim.seed(X, Base, static_cast<uint32_t>(Visited.size()) + 1, Mask);

  ClosureOut CR = Sim.closure();
  size_t I = Pos;
  for (;;) {
    if (CR.Err)
      return PredictionResult::error(*CR.Err);
    if (std::optional<robust::FaultSite> F = robust::takePendingFault())
      return PredictionResult::error(ParseError::faultInjected(*F));
    if (CR.Configs.empty())
      return PredictionResult::reject();
    std::vector<ProductionId> Preds = distinctPredictions(CR.Configs);
    if (Preds.size() == 1)
      return PredictionResult::unique(Preds[0]);
    if (I == Input.size())
      return resolveAtEndOfInput(distinctFinalPredictions(CR.Configs));
    Sim.moveInto(CR.Configs, Input[I].Term);
    CR = Sim.closure();
    ++I;
  }
}

//===----------------------------------------------------------------------===//
// SLL cache
//===----------------------------------------------------------------------===//

namespace {

/// detachConfigs' working memory, kept per thread so that detaching a
/// state allocates nothing but the state's own block. The memo is an
/// open-addressing table from arena node address to the node's number in
/// Order, emptied between calls by bumping a generation stamp rather than
/// by clearing or freeing it (adt::HashIndex has no such reset), so one
/// very deep state does not make every later reset pay for its size.
class DetachScratch {
  struct Entry {
    const SimStackNode *Node = nullptr;
    uint32_t Slot = 0;
    uint32_t Gen = 0;
  };
  std::vector<Entry> Table; // power-of-two size, at most half full
  uint32_t Gen = 0;

  size_t probeStart(const SimStackNode *N) const {
    return static_cast<size_t>(adt::mix64(reinterpret_cast<uintptr_t>(N))) &
           (Table.size() - 1);
  }

  void place(const SimStackNode *N, uint32_t Slot) {
    size_t I = probeStart(N);
    while (Table[I].Gen == Gen)
      I = (I + 1) & (Table.size() - 1);
    Table[I] = Entry{N, Slot, Gen};
  }

public:
  /// The registered nodes, numbered tails first; and a per-config walk.
  std::vector<const SimStackNode *> Order, Path;

  /// Forgets every registered node.
  void reset() {
    Order.clear();
    if (++Gen == 0) { // the stamp wrapped: old entries would read as live
      std::fill(Table.begin(), Table.end(), Entry{});
      Gen = 1;
    }
  }

  /// \returns \p N's number in Order, or nullptr if it is not registered.
  const uint32_t *find(const SimStackNode *N) const {
    if (Table.empty())
      return nullptr;
    for (size_t I = probeStart(N);; I = (I + 1) & (Table.size() - 1)) {
      const Entry &E = Table[I];
      if (E.Gen != Gen)
        return nullptr;
      if (E.Node == N)
        return &E.Slot;
    }
  }

  /// Registers \p N as the next node of Order.
  void push(const SimStackNode *N) {
    if ((Order.size() + 1) * 2 > Table.size()) {
      // Fresh entries carry stamp 0, never the live one (reset() made it at
      // least 1), so only the registered nodes are re-placed.
      Table.assign(std::max<size_t>(64, Table.size() * 2), Entry{});
      for (uint32_t S = 0; S < Order.size(); ++S)
        place(Order[S], S);
    }
    place(N, static_cast<uint32_t>(Order.size()));
    Order.push_back(N);
  }
};

/// Deep-copies the arena part of a new state's sim stacks into one owning
/// heap block, so the configs of a cache that outlives the epoch survive
/// the parse that built them. Loops only, so stack depth never becomes
/// native recursion: each config's stack is walked down to its first node
/// the arena does not own, or that an earlier config already registered,
/// and the walked nodes are numbered tails-first; then they are copied in
/// that order into a block sized exactly once, and the configs re-pointed.
/// The memo, keyed by arena node address, preserves the tail sharing
/// closure produced (configs of one state routinely share stack suffixes)
/// at O(1) per node.
///
/// Nodes the arena does not own anchor the walk: they live in earlier
/// states of this same cache (detached by a previous intern, or borrowed
/// from one by makeSimStack), and caches are exchanged wholesale
/// (publish/adopt replaces, never merges per-state), so an anchor can
/// never outlive the state that owns it. Deliberately bypasses
/// makeSimStack: detaching is a lifetime operation, so it bumps no
/// allocation counters and hits no fault-injection site — cached-state
/// contents and stats stay identical across allocation backends.
void detachConfigs(const adt::Arena &A, std::vector<Subparser> &Configs) {
  thread_local DetachScratch Memo;
  Memo.reset();
  std::vector<const SimStackNode *> &Order = Memo.Order, &Path = Memo.Path;
  for (const Subparser &Sp : Configs) {
    Path.clear();
    for (const SimStackNode *N = Sp.Stack.get();
         N && A.owns(N) && !Memo.find(N); N = N->Tail.get())
      Path.push_back(N);
    for (auto It = Path.rbegin(); It != Path.rend(); ++It)
      Memo.push(*It);
  }
  if (Order.empty())
    return;
  // Reserved up front, so node addresses are stable while tails are linked
  // to earlier slots.
  auto Block = std::make_shared<std::vector<SimStackNode>>();
  Block->reserve(Order.size());
  for (const SimStackNode *N : Order) {
    // A tail inside the block is stored as a *non-owning* alias: an owning
    // handle held inside the block it owns would be a shared_ptr cycle (the
    // block could never die). The block stays alive through the owning
    // top-of-stack handles the configs hold. An anchor outside the block
    // keeps the handle the arena node held.
    const uint32_t *Tail = Memo.find(N->Tail.get());
    Block->emplace_back(N->F, Tail ? adt::arenaRef(&(*Block)[*Tail])
                                   : N->Tail);
  }
  for (Subparser &Sp : Configs) {
    if (const uint32_t *S = Memo.find(Sp.Stack.get()))
      Sp.Stack = SimStackPtr(Block, &(*Block)[*S]);
  }
}

/// (hash, index) of each config, sorted into the canonical order:
/// ascending hash, ties broken by compareSubparsers. Hashes each config
/// once.
std::vector<std::pair<uint64_t, uint32_t>>
canonicalOrder(const std::vector<Subparser> &Configs) {
  std::vector<std::pair<uint64_t, uint32_t>> Keys;
  Keys.reserve(Configs.size());
  for (uint32_t I = 0; I < Configs.size(); ++I)
    Keys.emplace_back(subparserHash(Configs[I]), I);
  std::sort(Keys.begin(), Keys.end(), [&](const auto &L, const auto &R) {
    return L.first != R.first
               ? L.first < R.first
               : compareSubparsers(Configs[L.second], Configs[R.second]) < 0;
  });
  return Keys;
}

} // namespace

uint32_t SllCache::intern(std::vector<Subparser> Configs) {
  // Canonicalize: order configs by their O(1) hash-consed identity hash,
  // breaking ties structurally. Both backends share this order, so state
  // ids and contents never depend on the backend.
  std::vector<std::pair<uint64_t, uint32_t>> Order = canonicalOrder(Configs);
  uint64_t StateHash = 0x243F6A8885A308D3ull;
  std::vector<uint32_t> FlatKey;
  if (Backend == CacheBackend::Hashed) {
    robust::injectPoint(robust::FaultSite::HashedCacheProbe);
    // The state hash folds the per-config hashes in canonical order.
    for (const auto &[Hash, Index] : Order)
      StateHash = adt::mix64(StateHash ^ Hash);
    // A hash match is verified against the stored state itself: equal
    // config counts, and configs structurally equal position by position
    // (short-circuiting on shared stack tails).
    if (const uint32_t *Found = HashIntern.find(StateHash, [&](uint32_t Id) {
          const std::vector<Subparser> &Known = States[Id].Configs;
          if (Known.size() != Configs.size())
            return false;
          for (size_t I = 0; I < Known.size(); ++I)
            if (!subparserEquals(Known[I], Configs[Order[I].second]))
              return false;
          return true;
        }))
      return *Found;
  } else {
    // The paper-faithful backend keys states by their serialized configs
    // in canonical order; comparing those word vectors is the Section 6.1
    // cost profile this backend reproduces.
    for (const auto &[Hash, Index] : Order)
      serializeSubparser(Configs[Index], FlatKey);
    if (const uint32_t *Found = AvlIntern.find(FlatKey))
      return *Found;
  }

  DfaState St;
  St.Configs.reserve(Configs.size());
  for (const auto &[Hash, Index] : Order)
    St.Configs.push_back(std::move(Configs[Index]));
  // A cache that outlives the parse epoch re-anchors the arena-allocated
  // sim stacks on the heap before the state is stored.
  if (adt::Arena *A = EpochLocal ? nullptr : adt::scratchArena())
    detachConfigs(*A, St.Configs);
  std::vector<ProductionId> Preds = distinctPredictions(St.Configs);
  if (Preds.empty())
    St.Res = Resolution::Reject;
  else if (Preds.size() == 1) {
    St.Res = Resolution::Unique;
    St.UniquePred = Preds[0];
  }
  St.FinalPreds = distinctFinalPredictions(St.Configs);

  uint32_t Id = static_cast<uint32_t>(States.size());
  States.push_back(std::move(St));
  if (Backend == CacheBackend::Hashed) {
    HashIntern.insert(StateHash, Id);
  } else {
    robust::injectPoint(robust::FaultSite::AvlCacheInsert);
    AvlIntern = AvlIntern.insert(FlatKey, Id);
  }
  return Id;
}

std::optional<uint32_t> SllCache::findStart(NonterminalId X) const {
  if (Backend == CacheBackend::Hashed)
    robust::injectPoint(robust::FaultSite::HashedCacheProbe);
  const uint32_t *Found = Backend == CacheBackend::Hashed
                              ? HashStartStates.find(X)
                              : AvlStartStates.find(X);
  if (Found)
    return *Found;
  return std::nullopt;
}

void SllCache::recordStart(NonterminalId X, uint32_t Id) {
  if (Backend == CacheBackend::Hashed) {
    HashStartStates.insert(X, Id);
  } else {
    robust::injectPoint(robust::FaultSite::AvlCacheInsert);
    AvlStartStates = AvlStartStates.insert(X, Id);
  }
}

std::optional<uint32_t> SllCache::findTransition(uint32_t From,
                                                 TerminalId T) const {
  if (Backend == CacheBackend::Hashed)
    robust::injectPoint(robust::FaultSite::HashedCacheProbe);
  uint64_t Key = (static_cast<uint64_t>(From) << 32) | T;
  const uint32_t *Found = Backend == CacheBackend::Hashed
                              ? HashTransitions.find(Key)
                              : AvlTransitions.find(Key);
  if (Found)
    return *Found;
  return std::nullopt;
}

void SllCache::recordTransition(uint32_t From, TerminalId T, uint32_t To) {
  uint64_t Key = (static_cast<uint64_t>(From) << 32) | T;
  if (Backend == CacheBackend::Hashed) {
    HashTransitions.insert(Key, To);
  } else {
    robust::injectPoint(robust::FaultSite::AvlCacheInsert);
    AvlTransitions = AvlTransitions.insert(Key, To);
  }
}

void SllCache::forEachStart(
    const std::function<void(NonterminalId, uint32_t)> &Fn) const {
  // Both backends funnel through one sort so the enumeration order — and
  // therefore every serialized artifact built from it — is a function of
  // the cache's *contents*, never of probe order or AVL shape.
  std::vector<std::pair<NonterminalId, uint32_t>> Starts;
  if (Backend == CacheBackend::Hashed)
    HashStartStates.forEach([&](uint64_t Key, uint32_t Id) {
      Starts.emplace_back(static_cast<NonterminalId>(Key), Id);
    });
  else
    AvlStartStates.forEach(
        [&](NonterminalId X, uint32_t Id) { Starts.emplace_back(X, Id); });
  std::sort(Starts.begin(), Starts.end());
  for (const auto &[X, Id] : Starts)
    Fn(X, Id);
}

void SllCache::forEachTransition(
    const std::function<void(uint32_t, TerminalId, uint32_t)> &Fn) const {
  std::vector<std::pair<uint64_t, uint32_t>> Edges;
  if (Backend == CacheBackend::Hashed)
    HashTransitions.forEach(
        [&](uint64_t Key, uint32_t To) { Edges.emplace_back(Key, To); });
  else
    AvlTransitions.forEach(
        [&](uint64_t Key, uint32_t To) { Edges.emplace_back(Key, To); });
  std::sort(Edges.begin(), Edges.end());
  for (const auto &[Key, To] : Edges)
    Fn(static_cast<uint32_t>(Key >> 32),
       static_cast<TerminalId>(Key & 0xFFFFFFFFu), To);
}

//===----------------------------------------------------------------------===//
// SLL prediction
//===----------------------------------------------------------------------===//

PredictionResult costar::sllPredict(const Grammar &G,
                                    const PredictionTables &Tables,
                                    SllCache &Cache, NonterminalId X,
                                    const Word &Input, size_t Pos,
                                    obs::Tracer *Trace,
                                    robust::BudgetTracker *Budget) {
  Simulator Sim(G, &Tables, SimMode::SLL, Budget);

  uint32_t Sid;
  if (std::optional<uint32_t> Start = Cache.findStart(X)) {
    ++Cache.Hits;
    Sid = *Start;
    if (Trace)
      Trace->emit(obs::EventKind::SllCacheHit, Sid, UINT32_MAX, 0, Pos);
  } else {
    ++Cache.Misses;
    Sim.seed(X, nullptr, /*Depth=*/1, maskBit(X));
    ClosureOut CR = Sim.closure();
    if (CR.Err)
      return PredictionResult::error(*CR.Err);
    Sid = Cache.intern(std::move(CR.Configs));
    Cache.recordStart(X, Sid);
    if (Trace)
      Trace->emit(obs::EventKind::SllCacheMiss, Sid, UINT32_MAX, 0, Pos);
  }

  size_t I = Pos;
  for (;;) {
    // Structured failure polls: an injected cache fault unwinds here as an
    // error result (never an exception); an armed budget is ticked once
    // per simulated token.
    if (std::optional<robust::FaultSite> F = robust::takePendingFault())
      return PredictionResult::error(ParseError::faultInjected(*F));
    if (Budget) {
      if (std::optional<robust::BudgetReason> R = Budget->tick())
        return PredictionResult::error(ParseError::budgetExceeded(*R));
    }
    // Note: do not hold a reference to the state across intern() calls.
    SllCache::Resolution Res = Cache.state(Sid).Res;
    if (Res == SllCache::Resolution::Reject)
      return PredictionResult::reject();
    if (Res == SllCache::Resolution::Unique)
      return PredictionResult::unique(Cache.state(Sid).UniquePred);
    if (I == Input.size())
      return resolveAtEndOfInput(Cache.state(Sid).FinalPreds);

    TerminalId T = Input[I].Term;
    if (std::optional<uint32_t> Next = Cache.findTransition(Sid, T)) {
      ++Cache.Hits;
      Sid = *Next;
      if (Trace)
        Trace->emit(obs::EventKind::SllCacheHit, Sid, T, 0, I);
    } else {
      ++Cache.Misses;
      Sim.moveInto(Cache.state(Sid).Configs, T);
      ClosureOut CR = Sim.closure();
      if (CR.Err)
        return PredictionResult::error(*CR.Err);
      uint32_t NextId = Cache.intern(std::move(CR.Configs));
      Cache.recordTransition(Sid, T, NextId);
      Sid = NextId;
      if (Trace)
        Trace->emit(obs::EventKind::SllCacheMiss, Sid, T, 0, I);
    }
    ++I;
  }
}

//===----------------------------------------------------------------------===//
// adaptivePredict
//===----------------------------------------------------------------------===//

PredictionResult costar::adaptivePredict(
    const Grammar &G, const PredictionTables &Tables, SllCache &Cache,
    NonterminalId X, std::span<const Frame> MachineStack,
    const VisitedSet &Visited, const Word &Input, size_t Pos,
    PredictionStats *Stats, obs::Tracer *Trace,
    robust::BudgetTracker *Budget) {
  if (Stats) {
    ++Stats->Predictions;
    ++Stats->SllPredictions;
  }
  PredictionResult SllRes =
      sllPredict(G, Tables, Cache, X, Input, Pos, Trace, Budget);
  if (SllRes.ResultKind != PredictionResult::Kind::Ambig)
    return SllRes;
  // The SLL result may be unsound (the overapproximated stacks kept a
  // right-hand side alive that precise simulation would rule out): restart
  // in LL mode.
  if (Stats)
    ++Stats->Failovers;
  if (Trace) {
    Trace->emit(obs::EventKind::SllCacheConflict, X, SllRes.Prod, 0, Pos);
    Trace->emit(obs::EventKind::LlFallback, X, 0, 0, Pos);
  }
  return llPredict(G, X, MachineStack, Visited, Input, Pos, Budget);
}
