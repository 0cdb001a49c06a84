//===- adt/Instrument.h - Comparison instrumentation -----------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight counters used to reproduce the profiling discussion in
/// Section 6.1 of the CoStar paper: on large grammars the extracted parser
/// spends close to half of its time inside symbol-comparison functions
/// (compareNT alone accounts for ~17% on Python). A CountingLess comparator
/// wraps any ordering and bumps a thread-local counter on every call, so a
/// bench harness can report comparisons-per-token per benchmark language.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_ADT_INSTRUMENT_H
#define COSTAR_ADT_INSTRUMENT_H

#include <cstdint>

namespace costar {
namespace adt {

/// Process-wide comparison counters, grouped by what is being compared.
struct ComparisonCounters {
  /// Comparisons of grammar nonterminals (the paper's compareNT).
  static uint64_t &nonterminal() {
    thread_local uint64_t Count = 0;
    return Count;
  }
  /// Comparisons of subparser / DFA-cache keys.
  static uint64_t &cacheKey() {
    thread_local uint64_t Count = 0;
    return Count;
  }
  /// Slot probes in the Hashed cache backend's open-addressing indexes
  /// (adt/HashIndex.h) — the hash-side analogue of cacheKey(), so profile
  /// harnesses can compare the two cost families.
  static uint64_t &hashProbe() {
    thread_local uint64_t Count = 0;
    return Count;
  }
  /// Resets all counters to zero.
  static void reset() {
    nonterminal() = 0;
    cacheKey() = 0;
    hashProbe() = 0;
  }
};

/// Thread-local allocation counters for the node-shaped heap traffic of the
/// parse path (parse-tree nodes, subparser stack nodes). robust::ParseBudget
/// reads the delta across a parse to enforce its resident-allocation cap;
/// the counter is gross (allocations, not net-live nodes), which upper-bounds
/// residency because the machine never frees mid-parse.
struct AllocationCounters {
  /// Tree and SimStackNode constructions on this thread. Counted at the
  /// creation helpers (Tree::leaf/node, makeSimStack), *not* in the node
  /// constructors, so the heap copies of configs a long-lived cache keeps
  /// stay invisible and the count is identical across allocation
  /// backends.
  static uint64_t &nodes() {
    thread_local uint64_t Count = 0;
    return Count;
  }
  /// Parse-path bytes drawn from the allocation substrate on this thread:
  /// every byte bump-allocated from an arena (adt/Arena.h), plus node and
  /// buffer bytes (with an estimated control-block overhead) on the
  /// shared_ptr backend. The two backends count honestly different
  /// things — arena totals include slab-resident buffers, shared totals
  /// estimate heap blocks — so cross-backend byte comparisons are
  /// substrate comparisons, not identities.
  static uint64_t &bytes() {
    thread_local uint64_t Count = 0;
    return Count;
  }
  static void reset() {
    nodes() = 0;
    bytes() = 0;
  }
};

/// Thread-local counters for the lexer's scan paths: input bytes consumed
/// by the table-driven SWAR lexer and by the scalar paper-faithful one, so
/// a test can tell which backend actually ran.
struct TableCounters {
  /// Input bytes consumed by the SWAR table-scan lexer path.
  static uint64_t &lexSwarBytes() {
    thread_local uint64_t Count = 0;
    return Count;
  }
  /// Input bytes consumed by the scalar paper-faithful lexer path.
  static uint64_t &lexScalarBytes() {
    thread_local uint64_t Count = 0;
    return Count;
  }
  static void reset() {
    lexSwarBytes() = 0;
    lexScalarBytes() = 0;
  }
};

/// A comparator adapter that counts invocations in the given counter slot.
///
/// \tparam BaseLess the underlying strict weak ordering.
/// \tparam CounterFn pointer to one of the ComparisonCounters accessors.
template <typename BaseLess, uint64_t &(*CounterFn)()> struct CountingLess {
  BaseLess Less;
  template <typename T> bool operator()(const T &A, const T &B) const {
    ++CounterFn();
    return Less(A, B);
  }
};

} // namespace adt
} // namespace costar

#endif // COSTAR_ADT_INSTRUMENT_H
