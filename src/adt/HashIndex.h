//===- adt/HashIndex.h - Open-addressing hash indexes ----------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flat open-addressing hash indexes for the SLL DFA cache's Hashed
/// backend. The paper's profile (Section 6.1) shows ordered-map key
/// comparisons dominating CoStar's runtime on large grammars; these
/// structures replace the O(log n) comparison chains of the FMapAVL-style
/// substrate with O(1) expected probes:
///
///  - HashIndex:  uint64 key -> uint32 value (DFA transitions and start
///    states).
///  - HashIdIndex: 64-bit state hash -> dense state id, with caller-side
///    key verification (the DFA-state interner; the states themselves
///    are the keys).
///
/// Both use power-of-two capacities, linear probing, and a splitmix64
/// bit-mixer so that the sequential ids the cache produces spread evenly.
/// Probes are counted in ComparisonCounters::hashProbe() so the Section 6.1
/// profile harness can report both cost families side by side.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_ADT_HASHINDEX_H
#define COSTAR_ADT_HASHINDEX_H

#include "adt/Instrument.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace costar {
namespace adt {

/// Fibonacci/splitmix-style 64-bit finalizer: a cheap bijection whose
/// output bits all depend on all input bits.
inline uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// An open-addressing map from uint64 keys to uint32 values. Values must
/// not equal EmptyValue (the slot sentinel); the DFA cache stores dense
/// state ids, which never reach it.
class HashIndex {
public:
  static constexpr uint32_t EmptyValue = UINT32_MAX;

private:
  struct Slot {
    uint64_t Key = 0;
    uint32_t Value = EmptyValue;
  };
  std::vector<Slot> Slots;
  uint64_t Count = 0;

  size_t probeStart(uint64_t Key) const {
    return static_cast<size_t>(mix64(Key)) & (Slots.size() - 1);
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 16 : Old.size() * 2, Slot{});
    for (const Slot &S : Old) {
      if (S.Value == EmptyValue)
        continue;
      size_t I = probeStart(S.Key);
      while (Slots[I].Value != EmptyValue)
        I = (I + 1) & (Slots.size() - 1);
      Slots[I] = S;
    }
  }

public:
  uint64_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// \returns a pointer to the value bound to \p Key, or nullptr.
  const uint32_t *find(uint64_t Key) const {
    if (Slots.empty())
      return nullptr;
    size_t I = probeStart(Key);
    for (;;) {
      ++ComparisonCounters::hashProbe();
      const Slot &S = Slots[I];
      if (S.Value == EmptyValue)
        return nullptr;
      if (S.Key == Key)
        return &S.Value;
      I = (I + 1) & (Slots.size() - 1);
    }
  }

  /// Visits every (key, value) binding. The visit order is PROBE order —
  /// a function of the hash seed, table capacity, and insertion history —
  /// so it is not stable across table growth and must never leak into
  /// serialized artifacts. Callers that need reproducible bytes (the
  /// snapshot writer) collect the bindings and sort by key; SllCache's
  /// forEachTransition/forEachStart do exactly that.
  template <typename FnT> void forEach(FnT Fn) const {
    for (const Slot &S : Slots)
      if (S.Value != EmptyValue)
        Fn(S.Key, S.Value);
  }

  /// Binds \p Key to \p Value. \p Key must not already be present.
  void insert(uint64_t Key, uint32_t Value) {
    assert(Value != EmptyValue && "value collides with the empty sentinel");
    assert(!find(Key) && "duplicate key in HashIndex");
    if (Slots.empty() || (Count + 1) * 10 >= Slots.size() * 7)
      grow();
    size_t I = probeStart(Key);
    while (Slots[I].Value != EmptyValue) {
      ++ComparisonCounters::hashProbe();
      I = (I + 1) & (Slots.size() - 1);
    }
    Slots[I] = Slot{Key, Value};
    ++Count;
  }
};

/// An open-addressing multimap from 64-bit key hashes to dense ids, for
/// interners that store their keys themselves (the SLL cache keeps each
/// DFA state's canonical config list in its state table). find() walks
/// the probe chain of a hash and asks the caller to verify each candidate
/// id, so distinct keys whose hashes collide coexist; a lookup costs O(1)
/// expected probes plus one caller-side equality check per hash match.
class HashIdIndex {
  struct Slot {
    uint64_t Hash = 0;
    uint32_t Id = HashIndex::EmptyValue;
  };
  std::vector<Slot> Slots;
  uint32_t Count = 0;

  size_t probeStart(uint64_t Hash) const {
    return static_cast<size_t>(Hash) & (Slots.size() - 1);
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 16 : Old.size() * 2, Slot{});
    for (const Slot &S : Old) {
      if (S.Id == HashIndex::EmptyValue)
        continue;
      size_t I = probeStart(S.Hash);
      while (Slots[I].Id != HashIndex::EmptyValue)
        I = (I + 1) & (Slots.size() - 1);
      Slots[I] = S;
    }
  }

public:
  /// \returns the first id bound to \p Hash for which \p IsKey(id) holds,
  /// or nullptr.
  template <typename PredT>
  const uint32_t *find(uint64_t Hash, PredT IsKey) const {
    if (Slots.empty())
      return nullptr;
    size_t I = probeStart(Hash);
    for (;;) {
      ++ComparisonCounters::hashProbe();
      const Slot &S = Slots[I];
      if (S.Id == HashIndex::EmptyValue)
        return nullptr;
      if (S.Hash == Hash && IsKey(S.Id))
        return &S.Id;
      I = (I + 1) & (Slots.size() - 1);
    }
  }

  /// Binds \p Hash to \p Id; the caller guarantees the key is new.
  void insert(uint64_t Hash, uint32_t Id) {
    assert(Id != HashIndex::EmptyValue &&
           "id collides with the empty sentinel");
    if (Slots.empty() || (Count + 1) * 10 >= Slots.size() * 7)
      grow();
    size_t I = probeStart(Hash);
    while (Slots[I].Id != HashIndex::EmptyValue) {
      ++ComparisonCounters::hashProbe();
      I = (I + 1) & (Slots.size() - 1);
    }
    Slots[I] = Slot{Hash, Id};
    ++Count;
  }
};

} // namespace adt
} // namespace costar

#endif // COSTAR_ADT_HASHINDEX_H
