//===- snapshot/Snapshot.cpp - Warm-start cache snapshots ---------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "snapshot/Snapshot.h"

#include "adt/ArenaPtr.h"
#include "adt/HashIndex.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define COSTAR_SNAPSHOT_HAVE_MMAP 1
#endif

using namespace costar;
using namespace costar::snapshot;
using costar::robust::SnapshotError;
using costar::robust::SnapshotErrorKind;

//===----------------------------------------------------------------------===//
// Checksums and fingerprints
//===----------------------------------------------------------------------===//

uint64_t costar::snapshot::checksum(std::span<const uint8_t> Bytes) {
  // mix64-chained over 8-byte chunks; the length is folded in so that
  // trailing-zero truncations change the sum even when the dropped bytes
  // are zero.
  uint64_t H = 0x9E3779B97F4A7C15ull ^ Bytes.size();
  size_t I = 0;
  for (; I + 8 <= Bytes.size(); I += 8) {
    uint64_t W;
    std::memcpy(&W, Bytes.data() + I, 8);
    H = adt::mix64(H ^ W);
  }
  if (I < Bytes.size()) {
    uint64_t Tail = 0;
    std::memcpy(&Tail, Bytes.data() + I, Bytes.size() - I);
    H = adt::mix64(H ^ Tail);
  }
  return adt::mix64(H);
}

uint64_t costar::snapshot::grammarFingerprint(const Grammar &G) {
  uint64_t H = 0x434F535441523122ull;
  auto Mix = [&H](uint64_t W) { H = adt::mix64(H ^ W); };
  auto MixStr = [&](const std::string &S) {
    Mix(checksum({reinterpret_cast<const uint8_t *>(S.data()), S.size()}));
  };
  Mix(G.numTerminals());
  for (TerminalId T = 0; T < G.numTerminals(); ++T)
    MixStr(G.terminalName(T));
  Mix(G.numNonterminals());
  for (NonterminalId X = 0; X < G.numNonterminals(); ++X)
    MixStr(G.nonterminalName(X));
  Mix(G.numProductions());
  for (ProductionId P = 0; P < G.numProductions(); ++P) {
    const Production &Prod = G.production(P);
    Mix(Prod.Lhs);
    Mix(Prod.Rhs.size());
    // Terminals and nonterminals are numbered independently; tag the kind
    // so T3-in-an-Rhs never collides with NT3.
    for (Symbol S : Prod.Rhs)
      Mix(S.isTerminal() ? (uint64_t(1) << 32) | S.terminalId()
                         : S.nonterminalId());
  }
  return H;
}

uint32_t costar::snapshot::backendTag(CacheBackend B) {
  return B == CacheBackend::AvlPaperFaithful ? BackendTagAvl
                                             : BackendTagHashed;
}

//===----------------------------------------------------------------------===//
// Writers
//===----------------------------------------------------------------------===//

namespace {

void putU32(std::vector<uint8_t> &B, uint32_t V) {
  uint8_t Tmp[4];
  std::memcpy(Tmp, &V, 4);
  B.insert(B.end(), Tmp, Tmp + 4);
}

void putU64(std::vector<uint8_t> &B, uint64_t V) {
  uint8_t Tmp[8];
  std::memcpy(Tmp, &V, 8);
  B.insert(B.end(), Tmp, Tmp + 8);
}

/// One sim-stack node table entry: the node's frame and the 1-based ref
/// of its tail (0 = stack bottom).
struct NodeTriple {
  uint32_t Prod = 0, Pos = 0, TailRef = 0;

  uint64_t hash() const {
    return adt::mix64(
        adt::mix64((static_cast<uint64_t>(Prod) << 32) | Pos) ^ TailRef);
  }
  bool operator==(const NodeTriple &) const = default;
};

/// A stack node's address, as buildSllPayload's memo key.
struct NodeAddr {
  const SimStackNode *Node = nullptr;

  uint64_t hash() const {
    return adt::mix64(reinterpret_cast<uintptr_t>(Node));
  }
  bool operator==(const NodeAddr &) const = default;
};

/// buildSllPayload's memos: a linear-probing map from \p KeyT to a node
/// table ref. Refs are 1-based, so 0 marks an empty slot. Sized for an
/// expected entry count and kept at most two-thirds full, doubling if the
/// estimate was short.
template <typename KeyT> class RefMap {
  struct Slot {
    KeyT Key;
    uint32_t Ref = 0;
  };
  std::vector<Slot> Slots;
  size_t Count = 0;

  size_t home(const KeyT &K) const {
    return static_cast<size_t>(K.hash()) & (Slots.size() - 1);
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.size() * 2, Slot{});
    for (const Slot &S : Old) {
      if (!S.Ref)
        continue;
      size_t I = home(S.Key);
      while (Slots[I].Ref)
        I = (I + 1) & (Slots.size() - 1);
      Slots[I] = S;
    }
  }

public:
  explicit RefMap(size_t Expected)
      : Slots(std::bit_ceil(
            std::max<size_t>(16, Expected + Expected / 2 + 1))) {}

  /// \returns the ref bound to \p K, or 0.
  uint32_t find(const KeyT &K) const {
    for (size_t I = home(K);; I = (I + 1) & (Slots.size() - 1)) {
      const Slot &S = Slots[I];
      if (!S.Ref || S.Key == K)
        return S.Ref;
    }
  }

  /// Binds \p K, which has no ref yet, to \p Ref.
  void insert(const KeyT &K, uint32_t Ref) {
    if ((Count + 1) * 3 > Slots.size() * 2)
      grow();
    size_t I = home(K);
    while (Slots[I].Ref)
      I = (I + 1) & (Slots.size() - 1);
    Slots[I] = Slot{K, Ref};
    ++Count;
  }

  /// \returns the ref bound to \p K, binding it to \p Ref first if it had
  /// none.
  uint32_t findOrInsert(const KeyT &K, uint32_t Ref) {
    if ((Count + 1) * 3 > Slots.size() * 2)
      grow();
    for (size_t I = home(K);; I = (I + 1) & (Slots.size() - 1)) {
      Slot &S = Slots[I];
      if (!S.Ref) {
        S = Slot{K, Ref};
        ++Count;
        return Ref;
      }
      if (S.Key == K)
        return S.Ref;
    }
  }
};

/// SLL section payload: backend tag, node/state/start/transition counts,
/// a hash-consed sim-stack node table — (production, position, tail ref)
/// triples, tail refs 1-based and strictly backwards, 0 = stack bottom —
/// then every DFA state's canonical config list as (prediction, stack
/// ref) pairs, then starts ascending by nonterminal, then transitions
/// ascending by (from, terminal). All fields are u32 words; the
/// transition count is u64 (lo, hi) since transitions outnumber states
/// quadratically in the worst case.
///
/// The node table is the load-bearing design choice: configs of one
/// state (and across states) share long stack tails, so flattening each
/// config's chain would blow the payload up quadratically (a 16-file
/// Python training cache serializes to ~60 MB flattened, ~1000x the
/// node-table size) and — worse — rebuilding the flattened chains would
/// lose the sharing that makes simStackEquals short-circuit, silently
/// slowing every parse against the loaded cache. Nodes are deduplicated
/// *structurally* (by (prod, pos, tail-ref)), not by pointer, so the
/// emitted table is canonical: independently trained caches and
/// save-load-save round trips produce identical bytes.
std::vector<uint8_t> buildSllPayload(const SllCache &Cache) {
  size_t NumConfigs = 0;
  for (uint32_t Id = 0; Id < Cache.numStates(); ++Id)
    NumConfigs += Cache.state(Id).Configs.size();
  // Trained caches hold about two stack nodes per config, counted by
  // pointer or by structure.
  size_t ExpectedNodes = 2 * NumConfigs;
  std::vector<uint32_t> Nodes;  // (Prod, Pos, TailRef) triples
  std::vector<uint32_t> States; // per state: count, (Pred, StackRef)...
  Nodes.reserve(3 * ExpectedNodes);
  States.reserve(Cache.numStates() + 2 * NumConfigs);
  RefMap<NodeAddr> PtrMemo(ExpectedNodes);
  RefMap<NodeTriple> StructMemo(ExpectedNodes);
  std::vector<const SimStackNode *> Chain;

  // Returns the 1-based table ref for \p Top's chain, emitting any nodes
  // not yet in the table (bottom-up, so tail refs always point backwards).
  // Once a node is new to the table, so is every node above it: no entry
  // has a tail that was only just emitted. Those nodes are inserted
  // without a lookup, which keeps the walk from waiting on each probe.
  auto EmitStack = [&](const SimStackNode *Top) -> uint32_t {
    Chain.clear();
    uint32_t Ref = 0;
    for (const SimStackNode *N = Top; N; N = N->Tail.get()) {
      if ((Ref = PtrMemo.find({N})))
        break;
      Chain.push_back(N);
    }
    bool Fresh = false;
    for (auto It = Chain.rbegin(); It != Chain.rend(); ++It) {
      NodeTriple Key{(*It)->F.Prod, (*It)->F.Pos, Ref};
      uint32_t Next = static_cast<uint32_t>(Nodes.size() / 3 + 1);
      if (Fresh) {
        StructMemo.insert(Key, Next);
        Ref = Next;
      } else {
        Ref = StructMemo.findOrInsert(Key, Next);
        Fresh = Ref == Next;
      }
      if (Fresh)
        Nodes.insert(Nodes.end(), {Key.Prod, Key.Pos, Key.TailRef});
      PtrMemo.insert({*It}, Ref);
    }
    return Ref;
  };

  for (uint32_t Id = 0; Id < Cache.numStates(); ++Id) {
    const SllCache::DfaState &St = Cache.state(Id);
    States.push_back(static_cast<uint32_t>(St.Configs.size()));
    for (const Subparser &Sp : St.Configs) {
      States.push_back(Sp.Prediction);
      States.push_back(EmitStack(Sp.Stack.get()));
    }
  }

  std::vector<uint32_t> Starts; // (X, Id) pairs
  Cache.forEachStart([&Starts](NonterminalId X, uint32_t Id) {
    Starts.insert(Starts.end(), {X, Id});
  });
  std::vector<uint32_t> Trans; // (From, T, To) triples
  Cache.forEachTransition([&Trans](uint32_t From, TerminalId T, uint32_t To) {
    Trans.insert(Trans.end(), {From, T, To});
  });

  uint64_t NumTrans = Trans.size() / 3;
  const uint32_t Prelude[] = {backendTag(Cache.backend()),
                              static_cast<uint32_t>(Nodes.size() / 3),
                              static_cast<uint32_t>(Cache.numStates()),
                              static_cast<uint32_t>(Starts.size() / 2),
                              static_cast<uint32_t>(NumTrans),
                              static_cast<uint32_t>(NumTrans >> 32)};
  std::vector<uint8_t> Payload(4 * (std::size(Prelude) + Nodes.size() +
                                    States.size() + Starts.size() +
                                    Trans.size()));
  uint8_t *Out = Payload.data();
  for (std::span<const uint32_t> W :
       {std::span<const uint32_t>(Prelude), std::span<const uint32_t>(Nodes),
        std::span<const uint32_t>(States), std::span<const uint32_t>(Starts),
        std::span<const uint32_t>(Trans)}) {
    if (!W.empty())
      std::memcpy(Out, W.data(), W.size_bytes());
    Out += W.size_bytes();
  }
  return Payload;
}

/// Lexer section payload: scanner count, then per scanner the rule ->
/// terminal map and the serialized minimized Dfa (lexer::serializeDfa).
std::vector<uint8_t>
buildLexPayload(std::span<const lexer::Scanner *const> Scanners) {
  std::vector<uint8_t> B;
  putU32(B, static_cast<uint32_t>(Scanners.size()));
  std::vector<uint32_t> D;
  for (const lexer::Scanner *S : Scanners) {
    const std::vector<TerminalId> &RT = S->ruleTerminals();
    putU32(B, static_cast<uint32_t>(RT.size()));
    for (TerminalId T : RT)
      putU32(B, T);
    D.clear();
    lexer::serializeDfa(S->dfa(), D);
    putU32(B, static_cast<uint32_t>(D.size()));
    for (uint32_t W : D)
      putU32(B, W);
  }
  return B;
}

/// The builder for \p G's snapshot of \p Cache and \p Scanners.
SnapshotBuilder makeBuilder(const Grammar &G, const SllCache *Cache,
                            std::span<const lexer::Scanner *const> Scanners) {
  SnapshotBuilder Builder(grammarFingerprint(G),
                          Cache ? backendTag(Cache->backend())
                                : BackendTagNone);
  if (Cache)
    Builder.addSection(SectionSllCache, buildSllPayload(*Cache));
  if (!Scanners.empty())
    Builder.addSection(SectionLexers, buildLexPayload(Scanners));
  return Builder;
}

} // namespace

std::vector<uint8_t> SnapshotBuilder::prefix() const {
  size_t IndexOff = HeaderBytes + Sections.size() * SectionEntryBytes;
  std::vector<uint8_t> B;
  B.reserve(IndexOff + 8);
  B.resize(sizeof(Magic));
  std::memcpy(B.data(), Magic, sizeof(Magic));
  putU32(B, FormatVersion);
  putU32(B, EndianMark);
  putU64(B, GrammarHash);
  putU32(B, BackendTagValue);
  putU32(B, static_cast<uint32_t>(Sections.size()));
  size_t Off = IndexOff + 8;
  for (const Section &S : Sections) {
    putU32(B, S.Tag);
    putU32(B, 0);
    putU64(B, Off);
    putU64(B, S.Payload.size());
    putU64(B, checksum(S.Payload));
    Off += S.Payload.size();
  }
  // The index hash seals every byte above it: a flipped bit anywhere in
  // the header or table is caught before any offset in it is trusted.
  putU64(B, checksum({B.data(), IndexOff}));
  return B;
}

std::vector<uint8_t> SnapshotBuilder::finish() const {
  std::vector<uint8_t> B = prefix();
  size_t Total = B.size();
  for (const Section &S : Sections)
    Total += S.Payload.size();
  B.reserve(Total);
  for (const Section &S : Sections)
    B.insert(B.end(), S.Payload.begin(), S.Payload.end());
  return B;
}

std::vector<uint8_t> costar::snapshot::buildSnapshotBytes(
    const Grammar &G, const SllCache *Cache,
    std::span<const lexer::Scanner *const> Scanners) {
  return makeBuilder(G, Cache, Scanners).finish();
}

//===----------------------------------------------------------------------===//
// Validation and decoding
//===----------------------------------------------------------------------===//

namespace {

LoadResult failLoad(SnapshotErrorKind Kind, std::string Detail,
                    uint64_t Offset = 0) {
  LoadResult R;
  R.Err = SnapshotError{Kind, std::move(Detail), Offset};
  return R;
}

uint32_t readU32(std::span<const uint8_t> B, size_t Off) {
  uint32_t V;
  std::memcpy(&V, B.data() + Off, 4);
  return V;
}

uint64_t readU64(std::span<const uint8_t> B, size_t Off) {
  uint64_t V;
  std::memcpy(&V, B.data() + Off, 8);
  return V;
}

/// Bounds-checked cursor over a section payload read as u32 words, in
/// place: the payload is never copied. Every cursor read is guarded; a
/// short payload surfaces as a decode failure, never an out-of-bounds
/// read.
class WordReader {
  std::span<const uint8_t> Bytes;
  size_t I = 0;

public:
  explicit WordReader(std::span<const uint8_t> Payload) : Bytes(Payload) {}

  size_t size() const { return Bytes.size() / 4; }
  size_t position() const { return I; }
  size_t remaining() const { return size() - I; }
  bool done() const { return I == size(); }

  /// Word \p J of the payload, unguarded: the caller checked J < size().
  uint32_t at(size_t J) const {
    uint32_t V;
    std::memcpy(&V, Bytes.data() + 4 * J, 4);
    return V;
  }

  /// Moves the cursor \p N words on; the caller checked N <= remaining().
  void skip(size_t N) { I += N; }

  bool u32(uint32_t &Out) {
    if (I >= size())
      return false;
    Out = at(I++);
    return true;
  }
};

/// Whether two of the \p NumNodes node table entries \p Entry reads are
/// equal. A table sized to the whole file would cost a cache miss per
/// entry, so the entries are first partitioned by the top bits of their
/// hash into buckets of about 256 (equal entries share a bucket): one
/// pass counts the buckets, one scatters the entries into them. Each
/// bucket is then checked with a small linear-probing table that stays
/// in cache.
template <typename EntryFn>
bool hasDuplicateEntry(uint32_t NumNodes, EntryFn Entry) {
  unsigned Bits = std::max(1u, unsigned(std::bit_width(NumNodes / 256u)));
  unsigned Shift = 64 - Bits;
  size_t NumBuckets = size_t(1) << Bits;
  std::vector<uint32_t> Start(NumBuckets + 1, 0);
  for (uint32_t I = 0; I < NumNodes; ++I)
    ++Start[(Entry(I).hash() >> Shift) + 1];
  for (size_t B = 0; B < NumBuckets; ++B)
    Start[B + 1] += Start[B];
  // Entries bucket by bucket: their hashes, and their indices.
  std::vector<uint64_t> Hashes(NumNodes);
  std::vector<uint32_t> Index(NumNodes);
  {
    std::vector<uint32_t> Next(Start.begin(), Start.end() - 1);
    for (uint32_t I = 0; I < NumNodes; ++I) {
      uint64_t H = Entry(I).hash();
      uint32_t &N = Next[H >> Shift];
      Hashes[N] = H;
      Index[N++] = I;
    }
  }
  // Slots hold a 1-based position in Hashes; 0 is empty.
  std::vector<uint32_t> Table;
  for (size_t B = 0; B < NumBuckets; ++B) {
    uint32_t Lo = Start[B], Hi = Start[B + 1];
    size_t Mask = std::bit_ceil(std::max<size_t>(4, 2 * size_t(Hi - Lo))) - 1;
    Table.assign(Mask + 1, 0);
    for (uint32_t K = Lo; K < Hi; ++K)
      for (size_t S = Hashes[K] & Mask;; S = (S + 1) & Mask) {
        uint32_t Other = Table[S];
        if (!Other) {
          Table[S] = K + 1;
          break;
        }
        if (Hashes[Other - 1] == Hashes[K] &&
            Entry(Index[Other - 1]) == Entry(Index[K]))
          return true;
      }
  }
  return false;
}

/// What decodeSll knows of a validated node table entry: the symbol at
/// its position (a nonterminal id, or TerminalHead), its chain depth, and
/// whether a config or a later entry stacks on it.
struct NodeInfo {
  static constexpr uint32_t TerminalHead = UINT32_MAX;
  uint32_t Head = TerminalHead;
  uint32_t Depth : 31 = 0;
  uint32_t Referenced : 1 = 0;
};

/// Rebuilds the SLL cache from its section payload. On any malformed
/// content, \p Detail explains what broke and the function returns false
/// with \p Out untouched. Structural invariants of cached configs are
/// enforced here — stable configs carry a terminal at the top frame's
/// head and open nonterminals below it — because the simulator's closure
/// relies on them without rechecking (a hostile payload must not be able
/// to smuggle an ill-formed stack into a cache).
///
/// A load is a few linear passes over the payload words. Every check reads
/// the words themselves and a small per-entry NodeInfo, never a built
/// node. All nodes are built into one block, the layout
/// detachConfigs (core/Prediction.cpp) gives detached states: a tail
/// inside the block is a non-owning alias, and each config holds an owning
/// aliased handle to its top node, so the configs keep the block alive and
/// freeing it is a flat loop.
bool decodeSll(std::span<const uint8_t> Payload, const Grammar &G,
               uint32_t HeaderTag, std::shared_ptr<SllCache> &Out,
               std::string &Detail) {
  if (Payload.size() % 4 != 0) {
    Detail = "SLL section size is not a multiple of 4";
    return false;
  }
  WordReader R(Payload);
  uint32_t Tag, NumNodes, NumStates, NumStarts, TransLo, TransHi;
  if (!R.u32(Tag) || !R.u32(NumNodes) || !R.u32(NumStates) ||
      !R.u32(NumStarts) || !R.u32(TransLo) || !R.u32(TransHi)) {
    Detail = "SLL section shorter than its fixed prelude";
    return false;
  }
  if (Tag != HeaderTag) {
    Detail = "SLL section backend tag disagrees with the header";
    return false;
  }
  uint64_t NumTrans = (static_cast<uint64_t>(TransHi) << 32) | TransLo;
  // Each node costs three words, each state at least one, each start two,
  // each transition three: reject counts the remaining payload cannot
  // possibly hold before any of them sizes an allocation.
  if (NumNodes > R.remaining() / 3 || NumStates > R.remaining() ||
      NumStarts > R.remaining() / 2 || NumTrans > R.remaining() / 3) {
    Detail = "SLL section counts exceed the payload";
    return false;
  }

  // The shared sim-stack node table. Tail refs are 1-based and must point
  // strictly backwards, so the table is acyclic by construction; each
  // node is validated against the closure invariants cached configs rely
  // on (below-top frames open the nonterminal the frame above them is
  // parsing), and chains are capped at MaxSimStackDepth.
  const size_t NodeBase = R.position();
  auto Entry = [&](size_t I) {
    return NodeTriple{R.at(NodeBase + 3 * I), R.at(NodeBase + 3 * I + 1),
                      R.at(NodeBase + 3 * I + 2)};
  };
  R.skip(3 * size_t(NumNodes));
  std::vector<NodeInfo> Info(NumNodes);
  auto Block = std::make_shared<std::vector<SimStackNode>>();
  Block->reserve(NumNodes);
  for (uint32_t I = 0; I < NumNodes; ++I) {
    NodeTriple E = Entry(I);
    if (E.Prod >= G.numProductions()) {
      Detail = "sim-stack node production out of range";
      return false;
    }
    const Production &Prod = G.production(E.Prod);
    if (E.Pos >= Prod.Rhs.size()) {
      Detail = "sim-stack node position past its right-hand side";
      return false;
    }
    if (E.TailRef > I) {
      Detail = "sim-stack node tail ref does not point backwards";
      return false;
    }
    uint32_t Depth = 1;
    if (E.TailRef != 0) {
      // The node below this one must be parked on the nonterminal this
      // node's production expands (the simulated-call invariant).
      NodeInfo &Tail = Info[E.TailRef - 1];
      if (Tail.Head != Prod.Lhs) {
        Detail = "sim-stack node tail head violates stack invariants";
        return false;
      }
      if (Tail.Depth >= MaxSimStackDepth) {
        Detail = "sim-stack chain exceeds the format depth limit";
        return false;
      }
      Tail.Referenced = 1;
      Depth = Tail.Depth + 1;
    }
    Symbol Head = Prod.Rhs[E.Pos];
    Info[I].Head =
        Head.isTerminal() ? NodeInfo::TerminalHead : Head.nonterminalId();
    Info[I].Depth = Depth;
    Block->emplace_back(SimFrame{E.Prod, &Prod.Rhs, E.Pos},
                        E.TailRef ? adt::arenaRef(&(*Block)[E.TailRef - 1])
                                  : SimStackPtr());
  }

  if (hasDuplicateEntry(NumNodes, Entry)) {
    Detail = "duplicate sim-stack node entry";
    return false;
  }

  CacheBackend Backend = Tag == BackendTagAvl ? CacheBackend::AvlPaperFaithful
                                              : CacheBackend::Hashed;
  auto Cache = std::make_shared<SllCache>(Backend);
  for (uint32_t Sid = 0; Sid < NumStates; ++Sid) {
    uint32_t NumConfigs;
    if (!R.u32(NumConfigs) || NumConfigs > R.remaining() / 2) {
      Detail = "truncated DFA state";
      return false;
    }
    std::vector<Subparser> Configs;
    Configs.reserve(NumConfigs);
    for (uint32_t C = 0; C < NumConfigs; ++C) {
      size_t At = R.position() + 2 * C;
      uint32_t Pred = R.at(At), StackRef = R.at(At + 1);
      if (Pred >= G.numProductions()) {
        Detail = "config prediction is not a production of the grammar";
        return false;
      }
      if (StackRef > NumNodes) {
        Detail = "config stack ref out of range";
        return false;
      }
      SimStackPtr Stack;
      if (StackRef != 0) {
        // A stable config's top frame is parked on a terminal (final
        // configs have no stack at all).
        NodeInfo &Top = Info[StackRef - 1];
        if (Top.Head != NodeInfo::TerminalHead) {
          Detail = "config stack top is not parked on a terminal";
          return false;
        }
        Top.Referenced = 1;
        Stack = SimStackPtr(Block, &(*Block)[StackRef - 1]);
      }
      Configs.push_back(Subparser{Pred, std::move(Stack)});
    }
    R.skip(2 * size_t(NumConfigs));
    // The stored list must already be its state's canonical list — same
    // order, no config twice — or save(load(x)) would differ from x, and
    // no earlier state may hold the same configs. appendCanonical checks
    // both and recomputes resolutions and final-prediction sets exactly
    // as intern() does, so a snapshot-loaded state never differs from
    // its live-trained twin.
    switch (Cache->appendCanonical(std::move(Configs))) {
    case SllCache::AppendResult::Appended:
      break;
    case SllCache::AppendResult::NotCanonical:
      Detail = "DFA state configs are not in canonical order";
      return false;
    case SllCache::AppendResult::Duplicate:
      Detail = "DFA state repeats an earlier state";
      return false;
    }
  }
  // Every table node must be reachable from some config's stack:
  // orphaned entries would make save(load(x)) differ from x, breaking
  // the byte-idempotency committed artifacts rely on. Tail refs point
  // strictly backwards, so the last entry stacked on by nothing is
  // unreachable, and an entry that is a config's top or some entry's
  // tail is reachable exactly when every entry is.
  for (const NodeInfo &N : Info)
    if (!N.Referenced) {
      Detail = "unreferenced sim-stack node entry";
      return false;
    }
  uint64_t PrevStart = UINT64_MAX;
  for (uint32_t S = 0; S < NumStarts; ++S) {
    uint32_t X, Id;
    if (!R.u32(X) || !R.u32(Id)) {
      Detail = "truncated start-state table";
      return false;
    }
    if (X >= G.numNonterminals() || Id >= NumStates) {
      Detail = "start-state binding out of range";
      return false;
    }
    if (PrevStart != UINT64_MAX && X <= PrevStart) {
      Detail = "start-state table not strictly ascending";
      return false;
    }
    PrevStart = X;
    Cache->recordStart(X, Id);
  }
  uint64_t PrevKey = 0;
  bool HavePrev = false;
  for (uint64_t T = 0; T < NumTrans; ++T) {
    uint32_t From, Term, To;
    if (!R.u32(From) || !R.u32(Term) || !R.u32(To)) {
      Detail = "truncated transition table";
      return false;
    }
    if (From >= NumStates || To >= NumStates || Term >= G.numTerminals()) {
      Detail = "transition out of range";
      return false;
    }
    uint64_t Key = (static_cast<uint64_t>(From) << 32) | Term;
    if (HavePrev && Key <= PrevKey) {
      Detail = "transition table not strictly ascending";
      return false;
    }
    PrevKey = Key;
    HavePrev = true;
    Cache->recordTransition(From, Term, To);
  }
  if (!R.done()) {
    Detail = "trailing bytes after the SLL payload";
    return false;
  }
  Cache->Hits = 0;
  Cache->Misses = 0;
  Out = std::move(Cache);
  return true;
}

bool decodeLex(std::span<const uint8_t> Payload, const Grammar &G,
               std::vector<LexerSnapshot> &Out, std::string &Detail) {
  if (Payload.size() % 4 != 0) {
    Detail = "lexer section size is not a multiple of 4";
    return false;
  }
  WordReader R(Payload);
  uint32_t NumScanners;
  if (!R.u32(NumScanners) || NumScanners > R.remaining()) {
    Detail = "lexer section shorter than its scanner count";
    return false;
  }
  std::vector<LexerSnapshot> Lexers;
  Lexers.reserve(NumScanners);
  for (uint32_t S = 0; S < NumScanners; ++S) {
    LexerSnapshot L;
    uint32_t NumRules;
    if (!R.u32(NumRules) || NumRules > R.remaining()) {
      Detail = "truncated scanner rule table";
      return false;
    }
    L.RuleTerminals.reserve(NumRules);
    for (uint32_t Rule = 0; Rule < NumRules; ++Rule) {
      uint32_t Term;
      if (!R.u32(Term)) {
        Detail = "truncated scanner rule table";
        return false;
      }
      if (Term != UINT32_MAX && Term >= G.numTerminals()) {
        Detail = "scanner rule emits a terminal the grammar lacks";
        return false;
      }
      L.RuleTerminals.push_back(Term);
    }
    uint32_t DfaLen;
    if (!R.u32(DfaLen) || DfaLen > R.remaining()) {
      Detail = "truncated scanner DFA";
      return false;
    }
    std::vector<uint32_t> DfaWords(DfaLen);
    for (uint32_t &W : DfaWords)
      if (!R.u32(W)) {
        Detail = "truncated scanner DFA";
        return false;
      }
    if (!lexer::deserializeDfa(DfaWords, L.D)) {
      Detail = "malformed scanner DFA";
      return false;
    }
    // The Dfa validator cannot know the rule count; accept tags index the
    // rule table, so an out-of-range tag would read past RuleTerminals on
    // the first match.
    for (uint32_t St = 0; St < L.D.numStates(); ++St)
      if (L.D.acceptRule(St) >= static_cast<int32_t>(NumRules)) {
        Detail = "scanner DFA accepts a rule the rule table lacks";
        return false;
      }
    Lexers.push_back(std::move(L));
  }
  if (!R.done()) {
    Detail = "trailing bytes after the lexer payload";
    return false;
  }
  Out = std::move(Lexers);
  return true;
}

} // namespace

LoadResult costar::snapshot::parseSnapshotBytes(
    std::span<const uint8_t> Bytes, const Grammar &G,
    std::optional<CacheBackend> RequireBackend) {
  // Structural checks first: nothing semantic (grammar, backend, payload)
  // is consulted until the header, table, and their sealing hash are
  // known-good, so a corrupted offset is never dereferenced.
  if (Bytes.size() < sizeof(Magic))
    return failLoad(SnapshotErrorKind::Truncated,
                    "file shorter than the magic number", Bytes.size());
  if (std::memcmp(Bytes.data(), Magic, sizeof(Magic)) != 0)
    return failLoad(SnapshotErrorKind::BadMagic,
                    "not a CoStar snapshot file");
  if (Bytes.size() < HeaderBytes)
    return failLoad(SnapshotErrorKind::Truncated,
                    "file shorter than the header", Bytes.size());
  uint32_t Version = readU32(Bytes, 8);
  uint32_t Endian = readU32(Bytes, 12);
  if (Endian != EndianMark)
    return failLoad(SnapshotErrorKind::EndiannessMismatch,
                    "snapshot written on a machine of the other byte order",
                    12);
  if (Version != FormatVersion)
    return failLoad(SnapshotErrorKind::VersionMismatch,
                    "snapshot format version " + std::to_string(Version) +
                        ", expected " + std::to_string(FormatVersion),
                    8);
  uint64_t GrammarHash = readU64(Bytes, 16);
  uint32_t HeaderTag = readU32(Bytes, 24);
  uint32_t SectionCount = readU32(Bytes, 28);
  if (SectionCount > MaxSections)
    return failLoad(SnapshotErrorKind::Malformed,
                    "implausible section count", 28);
  size_t IndexOff = HeaderBytes + SectionCount * SectionEntryBytes;
  if (Bytes.size() < IndexOff + 8)
    return failLoad(SnapshotErrorKind::Truncated,
                    "file shorter than its section table", Bytes.size());
  if (readU64(Bytes, IndexOff) != checksum(Bytes.subspan(0, IndexOff)))
    return failLoad(SnapshotErrorKind::HeaderChecksumMismatch,
                    "header/section-table checksum mismatch", IndexOff);
  // Metadata is now trustworthy; semantic compatibility next.
  if (GrammarHash != grammarFingerprint(G))
    return failLoad(SnapshotErrorKind::GrammarHashMismatch,
                    "snapshot was trained on a different grammar", 16);
  if (HeaderTag != BackendTagAvl && HeaderTag != BackendTagHashed &&
      HeaderTag != BackendTagNone)
    return failLoad(SnapshotErrorKind::Malformed,
                    "unknown SLL cache backend tag", 24);
  if (RequireBackend) {
    if (HeaderTag == BackendTagNone)
      return failLoad(SnapshotErrorKind::BackendMismatch,
                      "snapshot carries no SLL cache section", 24);
    if (HeaderTag != backendTag(*RequireBackend))
      return failLoad(SnapshotErrorKind::BackendMismatch,
                      "snapshot was trained under the other cache backend",
                      24);
  }
  bool SawSll = false, SawLex = false;
  LoadResult R;
  for (uint32_t S = 0; S < SectionCount; ++S) {
    size_t EntryOff = HeaderBytes + S * SectionEntryBytes;
    uint32_t Tag = readU32(Bytes, EntryOff);
    uint32_t Pad = readU32(Bytes, EntryOff + 4);
    uint64_t Off = readU64(Bytes, EntryOff + 8);
    uint64_t Size = readU64(Bytes, EntryOff + 16);
    uint64_t Sum = readU64(Bytes, EntryOff + 24);
    if (Pad != 0)
      return failLoad(SnapshotErrorKind::Malformed,
                      "nonzero padding in a section entry", EntryOff + 4);
    if (Off < IndexOff + 8 || Size > Bytes.size() || Off > Bytes.size() - Size)
      return failLoad(SnapshotErrorKind::Truncated,
                      "section extends past the end of the file", EntryOff);
    std::span<const uint8_t> Payload =
        Bytes.subspan(static_cast<size_t>(Off), static_cast<size_t>(Size));
    if (checksum(Payload) != Sum)
      return failLoad(SnapshotErrorKind::SectionChecksumMismatch,
                      "section payload checksum mismatch", Off);
    std::string Detail;
    switch (Tag) {
    case SectionSllCache:
      if (SawSll || HeaderTag == BackendTagNone)
        return failLoad(SnapshotErrorKind::Malformed,
                        SawSll ? "duplicate SLL cache section"
                               : "SLL section in a lexer-only snapshot",
                        EntryOff);
      SawSll = true;
      if (!decodeSll(Payload, G, HeaderTag, R.Contents.Cache, Detail))
        return failLoad(SnapshotErrorKind::Malformed, std::move(Detail), Off);
      break;
    case SectionLexers:
      if (SawLex)
        return failLoad(SnapshotErrorKind::Malformed,
                        "duplicate lexer section", EntryOff);
      SawLex = true;
      if (!decodeLex(Payload, G, R.Contents.Lexers, Detail))
        return failLoad(SnapshotErrorKind::Malformed, std::move(Detail), Off);
      break;
    default:
      return failLoad(SnapshotErrorKind::Malformed, "unknown section tag",
                      EntryOff);
    }
  }
  if (HeaderTag != BackendTagNone && !SawSll)
    return failLoad(SnapshotErrorKind::Malformed,
                    "header promises an SLL cache section the table lacks",
                    24);
  return R;
}

//===----------------------------------------------------------------------===//
// File I/O
//===----------------------------------------------------------------------===//

std::optional<SnapshotError> costar::snapshot::saveSnapshot(
    const std::string &Path, const Grammar &G, const SllCache *Cache,
    std::span<const lexer::Scanner *const> Scanners) {
  SnapshotBuilder Builder = makeBuilder(G, Cache, Scanners);
  // Same-directory temporary + rename: a loader racing the writer sees
  // either the old complete file or the new complete file, never a torn
  // prefix that would cost it a Truncated error and a cold start.
  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return SnapshotError{SnapshotErrorKind::IoError,
                         "cannot open '" + Tmp + "' for writing", 0};
  bool Ok = true;
  Builder.forEachPiece([&](std::span<const uint8_t> Piece) {
    Ok = Ok && (Piece.empty() ||
                std::fwrite(Piece.data(), 1, Piece.size(), F) == Piece.size());
  });
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok || std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return SnapshotError{SnapshotErrorKind::IoError,
                         "cannot write '" + Path + "'", 0};
  }
  return std::nullopt;
}

LoadResult
costar::snapshot::loadSnapshot(const std::string &Path, const Grammar &G,
                               std::optional<CacheBackend> RequireBackend) {
#ifdef COSTAR_SNAPSHOT_HAVE_MMAP
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return failLoad(SnapshotErrorKind::IoError,
                    "cannot open '" + Path + "'");
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size < 0) {
    ::close(Fd);
    return failLoad(SnapshotErrorKind::IoError,
                    "cannot stat '" + Path + "'");
  }
  size_t Size = static_cast<size_t>(St.st_size);
  if (Size == 0) {
    ::close(Fd);
    return failLoad(SnapshotErrorKind::Truncated, "empty snapshot file");
  }
  void *Map = ::mmap(nullptr, Size, PROT_READ, MAP_PRIVATE, Fd, 0);
  if (Map != MAP_FAILED) {
    LoadResult R = parseSnapshotBytes(
        {static_cast<const uint8_t *>(Map), Size}, G, RequireBackend);
    ::munmap(Map, Size);
    ::close(Fd);
    return R;
  }
  ::close(Fd);
  // Fall through to the buffered read: mmap can fail on special files
  // and exotic filesystems where read still works.
#endif
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return failLoad(SnapshotErrorKind::IoError,
                    "cannot open '" + Path + "'");
  std::vector<uint8_t> Bytes;
  uint8_t Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  bool ReadOk = std::ferror(F) == 0;
  std::fclose(F);
  if (!ReadOk)
    return failLoad(SnapshotErrorKind::IoError,
                    "read error on '" + Path + "'");
  return parseSnapshotBytes(Bytes, G, RequireBackend);
}
