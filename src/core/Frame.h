//===- core/Frame.h - Machine stack frames ---------------------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CoStar's machine state keeps a prefix stack (processed symbols + partial
/// parse trees) and a suffix stack (unprocessed symbols) that are always the
/// same height, with paired frames describing one grammar right-hand side
/// (invariant StacksWf_I, Figure 4 of the paper). We fuse each pair into a
/// single Frame: the chosen right-hand side, an index splitting it into
/// processed and unprocessed halves, and the trees for the processed half.
/// This makes the "stacks have different heights" and "upper frames don't
/// spell a right-hand side" flavors of InvalidState unrepresentable while
/// remaining extensionally faithful to the paper's machine.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_CORE_FRAME_H
#define COSTAR_CORE_FRAME_H

#include "adt/ArenaPtr.h"
#include "adt/PersistentMap.h"
#include "grammar/Grammar.h"
#include "grammar/Tree.h"

#include <vector>

namespace costar {

/// The set of nonterminals opened but not yet closed since the machine last
/// consumed a token (Section 4.1). A persistent AVL set with a counting
/// comparator, mirroring the MSetAVL sets of the Coq extraction. Path-copy
/// nodes come from the parse epoch's arena when one is active
/// (adt::EpochNodePolicy): the machine's set churns on every push/return
/// and never outlives the parse. Prediction keeps no such set per
/// subparser; it derives one from the stack (core/Prediction.cpp).
using VisitedSet =
    adt::PersistentSet<NonterminalId, CompareNT, adt::EpochNodePolicy>;

/// One fused prefix/suffix stack frame.
struct Frame {
  /// The production whose right-hand side this frame processes, or
  /// InvalidProductionId for the synthesized bottom frame (which processes
  /// the start symbol).
  ProductionId Prod = InvalidProductionId;
  /// The symbols being processed. Points into grammar-owned (or
  /// machine-owned, for the bottom frame) storage that outlives the frame.
  const std::vector<Symbol> *Syms = nullptr;
  /// Split point: Syms[0..Next) are processed, Syms[Next..) unprocessed.
  size_t Next = 0;
  /// Parse trees for the processed symbols, in order.
  Forest Trees;

  bool done() const { return Next == Syms->size(); }

  /// The head unprocessed symbol (the "top stack symbol" when this frame is
  /// on top, or the open nonterminal when it is a caller frame).
  Symbol headSymbol() const {
    assert(!done() && "headSymbol() on an exhausted frame");
    return (*Syms)[Next];
  }

  /// Number of unprocessed symbols (frameScore input, Section 4.3).
  size_t unprocessedCount() const { return Syms->size() - Next; }
};

} // namespace costar

#endif // COSTAR_CORE_FRAME_H
