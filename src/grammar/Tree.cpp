//===- grammar/Tree.cpp - Parse trees --------------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "grammar/Tree.h"

#include "grammar/Grammar.h"

#include <atomic>
#include <utility>

using namespace costar;

Tree::~Tree() {
  // A handle is moved onto the local stack only while it is the sole owner
  // of its node, so the node dies here with an already-emptied forest. Arena
  // children are non-owning handles (use_count() == 0): the result arena
  // reclaims them, and they are left alone.
  std::vector<TreePtr> Doomed;
  auto Adopt = [&Doomed](Forest &Kids) {
    for (TreePtr &Kid : Kids)
      if (Kid.use_count() == 1)
        Doomed.push_back(std::move(Kid));
  };
  Adopt(Children);
  while (!Doomed.empty()) {
    TreePtr T = std::move(Doomed.back());
    Doomed.pop_back();
    // Pairs with the release decrement of whichever owner dropped its
    // handle last, so its reads of the node happen before the writes below.
    std::atomic_thread_fence(std::memory_order_acquire);
    Adopt(const_cast<Tree &>(*T).Children);
  }
}

void Tree::appendYield(Word &Out) const {
  // Children are pushed right to left so leaves pop left to right.
  std::vector<const Tree *> Pending{this};
  while (!Pending.empty()) {
    const Tree *T = Pending.back();
    Pending.pop_back();
    if (T->isLeaf()) {
      Out.push_back(T->Tok);
      continue;
    }
    for (auto It = T->Children.rbegin(); It != T->Children.rend(); ++It)
      Pending.push_back(It->get());
  }
}

bool Tree::equals(const Tree &A, const Tree &B) {
  std::vector<std::pair<const Tree *, const Tree *>> Pending{{&A, &B}};
  while (!Pending.empty()) {
    auto [X, Y] = Pending.back();
    Pending.pop_back();
    if (X == Y)
      continue; // a shared subtree
    if (!X || !Y || X->TreeKind != Y->TreeKind || X->Subtree != Y->Subtree)
      return false;
    if (X->isLeaf()) {
      if (X->Tok != Y->Tok)
        return false;
      continue;
    }
    if (X->Nt != Y->Nt || X->Children.size() != Y->Children.size())
      return false;
    for (size_t I = X->Children.size(); I-- > 0;)
      Pending.emplace_back(X->Children[I].get(), Y->Children[I].get());
  }
  return true;
}

std::string Tree::toString(const Grammar &G) const {
  struct Frame {
    const Tree *Node;
    size_t Next = 0; // children printed so far
  };
  std::string Out;
  std::vector<Frame> Stack{Frame{this}};
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    const Tree *T = F.Node;
    if (T->isLeaf()) {
      const std::string &Name = G.terminalName(T->Tok.Term);
      Out += Name;
      if (!T->Tok.Lexeme.empty() && T->Tok.Lexeme != Name) {
        Out += '(';
        Out += T->Tok.Lexeme;
        Out += ')';
      }
      Stack.pop_back();
      continue;
    }
    if (F.Next == 0) {
      Out += '(';
      Out += G.nonterminalName(T->Nt);
    }
    if (F.Next == T->Children.size()) {
      Out += ')';
      Stack.pop_back();
      continue;
    }
    Out += ' ';
    const Tree *Child = T->Children[F.Next++].get();
    Stack.push_back(Frame{Child}); // invalidates F; the loop re-borrows
  }
  return Out;
}
