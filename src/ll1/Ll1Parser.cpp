//===- ll1/Ll1Parser.cpp - LL(1) table-driven baseline -------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ll1/Ll1Parser.h"

#include "core/Frame.h"

using namespace costar;
using namespace costar::ll1;

Ll1Table::Ll1Table(const GrammarAnalysis &A) : G(A.grammar()) {
  Stride = G.numTerminals() + 1;
  Table.assign(static_cast<size_t>(G.numNonterminals()) * Stride,
               InvalidProductionId);

  // One shared claim enumeration (grammar/FirstFollow.h) feeds both this
  // table and analysis/Engine's conflict pass.
  forEachLl1Claim(G, A.tables(), [&](ProductionId P, NonterminalId X,
                                     uint32_t T, Ll1ClaimSource) {
    ProductionId &Cell = cell(X, T);
    if (Cell != InvalidProductionId && Cell != P) {
      std::string Look = T + 1 == Stride ? "<end>" : G.terminalName(T);
      ConflictLog.push_back("LL(1) conflict at (" + G.nonterminalName(X) +
                            ", " + Look + "): " + G.productionToString(Cell) +
                            "  vs  " + G.productionToString(P));
      return;
    }
    Cell = P;
  });
}

ParseResult Ll1Parser::parse(const Word &Input) const {
  assert(isLl1() && "parsing with a conflicted LL(1) table");
  std::vector<Symbol> StartSyms{Symbol::nonterminal(Start)};
  std::vector<Frame> Stack;
  Stack.push_back(Frame{InvalidProductionId, &StartSyms, 0, {}});
  size_t Pos = 0;

  for (;;) {
    Frame &Top = Stack.back();
    if (Top.done()) {
      if (Stack.size() == 1) {
        if (Pos != Input.size())
          return ParseResult::reject(
              "input remains after the start symbol was fully derived", Pos);
        return ParseResult::unique(Top.Trees.front());
      }
      Frame Popped = std::move(Stack.back());
      Stack.pop_back();
      Frame &Caller = Stack.back();
      NonterminalId X = Caller.headSymbol().nonterminalId();
      Caller.Trees.push_back(Tree::node(X, std::move(Popped.Trees)));
      ++Caller.Next;
      continue;
    }
    Symbol Head = Top.headSymbol();
    if (Head.isTerminal()) {
      if (Pos == Input.size())
        return ParseResult::reject("unexpected end of input; expected " +
                                       G.terminalName(Head.terminalId()),
                                   Pos);
      if (Input[Pos].Term != Head.terminalId())
        return ParseResult::reject(
            "expected " + G.terminalName(Head.terminalId()) + ", found " +
                G.terminalName(Input[Pos].Term),
            Pos);
      Top.Trees.push_back(Tree::leaf(Input[Pos]));
      ++Top.Next;
      ++Pos;
      continue;
    }
    NonterminalId X = Head.nonterminalId();
    ProductionId P = Pos == Input.size() ? Table.lookupEnd(X)
                                         : Table.lookup(X, Input[Pos].Term);
    if (P == InvalidProductionId)
      return ParseResult::reject(
          "no LL(1) table entry for " + G.nonterminalName(X), Pos);
    Stack.push_back(Frame{P, &G.production(P).Rhs, 0, {}});
  }
}
