//===- grammar/Tree.h - Parse trees ----------------------------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable parse trees (Figure 1 of the paper: v ::= Leaf(t) | Node(X, f)).
/// Trees are shared via shared_ptr<const Tree> handles: partial derivations
/// built on the machine's prefix stack become subtrees of the final result
/// without copying, which stands in for the garbage-collected sharing the
/// extracted OCaml implementation enjoys. The handle type hides two
/// substrates (adt/ArenaPtr.h): under AllocBackend::Arena (the default)
/// nodes live in the parse's result arena behind *non-owning* aliased
/// handles — two-word copies, no refcount traffic — and an accepted
/// result's root handle co-owns that arena (adt::Arena::handOff); under
/// SharedPtrPaperFaithful every node is an owning heap allocation, the
/// GC-faithful ablation baseline. Either way the root handle keeps the
/// whole tree alive, and child handles reached through children() borrow
/// from it.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_GRAMMAR_TREE_H
#define COSTAR_GRAMMAR_TREE_H

#include "adt/ArenaPtr.h"
#include "adt/Instrument.h"
#include "grammar/Token.h"
#include "robust/FaultInjection.h"

#include <memory>
#include <string>
#include <vector>

namespace costar {

class Grammar;
class Tree;

/// Shared immutable parse tree handle.
using TreePtr = std::shared_ptr<const Tree>;
/// A forest: the children of a Node, in left-to-right order. The buffer
/// comes from the installed result arena during a parse and from the heap
/// otherwise (adt::EpochAllocator).
using Forest = std::vector<TreePtr, adt::EpochAllocator<TreePtr>>;

/// An immutable parse tree node: a Leaf holding one token, or a Node holding
/// a nonterminal and the subtrees for one of its right-hand sides.
class Tree {
public:
  enum class Kind { Leaf, Node };

private:
  Kind TreeKind;
  Token Tok;            // valid when TreeKind == Leaf
  NonterminalId Nt = 0; // valid when TreeKind == Node
  /// Total nodes in this subtree (this node included), computed bottom-up
  /// at construction so nodeCount() is O(1). Fits in an alignment hole;
  /// trees large enough to overflow 32 bits would not fit in memory.
  uint32_t Subtree = 1;
  Forest Children; // valid when TreeKind == Node

  explicit Tree(Token Tok) : TreeKind(Kind::Leaf), Tok(std::move(Tok)) {}
  Tree(NonterminalId Nt, Forest Children)
      : TreeKind(Kind::Node), Nt(Nt), Children(std::move(Children)) {
    for (const TreePtr &Child : this->Children)
      Subtree += Child->Subtree;
  }

  friend class adt::Arena; // placement-constructs nodes in the arena path

public:
  /// Tears down owned children iteratively: on the shared_ptr backend each
  /// child handle owns its subtree, so letting the forest destroy itself
  /// would recurse once per nesting level.
  ~Tree();
  Tree(const Tree &) = delete;
  Tree &operator=(const Tree &) = delete;

  // Both creation paths feed the thread-local allocation counters (the
  // robust::ParseBudget caps read their deltas) and are an abort-class
  // fault-injection site. With an installed result arena the node is
  // bump-allocated behind a non-owning handle; otherwise it is an owning
  // heap allocation.
  static TreePtr leaf(Token Tok) {
    ++adt::AllocationCounters::nodes();
    robust::injectPoint(robust::FaultSite::TreeAlloc);
    if (adt::Arena *A = adt::resultArena())
      return adt::arenaRef(A->create<Tree>(std::move(Tok)));
    adt::AllocationCounters::bytes() +=
        sizeof(Tree) + adt::SharedCtrlBlockBytes;
    return TreePtr(new Tree(std::move(Tok)));
  }
  static TreePtr node(NonterminalId Nt, Forest Children) {
    ++adt::AllocationCounters::nodes();
    robust::injectPoint(robust::FaultSite::TreeAlloc);
    // Internal arena nodes skip finalizer registration: their children
    // handles are non-owning arenaRefs and the forest buffer is
    // arena-owned (EpochAllocator reclaims it with the epoch), so the
    // destructor would be a no-op. Leaves keep theirs — a Token's lexeme
    // may own heap storage.
    if (adt::Arena *A = adt::resultArena())
      return adt::arenaRef(A->createUnmanaged<Tree>(Nt, std::move(Children)));
    adt::AllocationCounters::bytes() +=
        sizeof(Tree) + adt::SharedCtrlBlockBytes;
    return TreePtr(new Tree(Nt, std::move(Children)));
  }

  Kind kind() const { return TreeKind; }
  bool isLeaf() const { return TreeKind == Kind::Leaf; }

  const Token &token() const {
    assert(isLeaf() && "token() on a Node");
    return Tok;
  }
  NonterminalId nonterminal() const {
    assert(!isLeaf() && "nonterminal() on a Leaf");
    return Nt;
  }
  const Forest &children() const {
    assert(!isLeaf() && "children() on a Leaf");
    return Children;
  }

  /// The root grammar symbol of this tree.
  Symbol rootSymbol() const {
    return isLeaf() ? Symbol::terminal(Tok.Term) : Symbol::nonterminal(Nt);
  }

  // The walkers below loop over an explicit stack instead of recursing:
  // the grammar DSL desugars lists into right-recursive spines as deep as
  // the input, so native recursion would cap the tree depth they accept
  // at the thread's stack size.

  /// Appends this tree's leaf tokens, left to right, to \p Out.
  void appendYield(Word &Out) const;

  /// \returns the leaf tokens of this tree, left to right.
  Word yield() const {
    Word Out;
    appendYield(Out);
    return Out;
  }

  /// \returns the number of tree nodes (leaves and internal).
  size_t nodeCount() const { return Subtree; }

  /// Structural equality (tokens compare by terminal and literal).
  static bool equals(const Tree &A, const Tree &B);

  /// Renders the tree as an S-expression using \p G's symbol names.
  std::string toString(const Grammar &G) const;
};

/// Structural equality over shared handles (null-safe).
inline bool treeEquals(const TreePtr &A, const TreePtr &B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  return Tree::equals(*A, *B);
}

} // namespace costar

#endif // COSTAR_GRAMMAR_TREE_H
