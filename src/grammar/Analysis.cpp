//===- grammar/Analysis.cpp - Grammar analyses -----------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "grammar/Analysis.h"

using namespace costar;

GrammarAnalysis::GrammarAnalysis(const Grammar &Grammar, NonterminalId Start)
    : G(Grammar), Tables(G, Start) {
  uint32_t N = G.numNonterminals();
  ProductiveNt.assign(N, false);
  MinHeightNt.assign(N, UINT32_MAX);
  computeProductive();
  computeMinHeight();
}

void GrammarAnalysis::computeProductive() {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (ProductionId Id = 0; Id < G.numProductions(); ++Id) {
      const Production &P = G.production(Id);
      if (ProductiveNt[P.Lhs])
        continue;
      bool AllProductive = true;
      for (Symbol S : P.Rhs) {
        if (S.isNonterminal() && !ProductiveNt[S.nonterminalId()]) {
          AllProductive = false;
          break;
        }
      }
      if (AllProductive) {
        ProductiveNt[P.Lhs] = true;
        Changed = true;
      }
    }
  }
}

void GrammarAnalysis::computeMinHeight() {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (ProductionId Id = 0; Id < G.numProductions(); ++Id) {
      const Production &P = G.production(Id);
      uint32_t Height = minHeightSeq(P.Rhs);
      if (Height == UINT32_MAX)
        continue;
      // A Node adds one level above the tallest child (leaves have height 1;
      // an epsilon Node has height 1).
      uint32_t Candidate = Height + 1;
      if (Candidate < MinHeightNt[P.Lhs]) {
        MinHeightNt[P.Lhs] = Candidate;
        Changed = true;
      }
    }
  }
}

uint32_t GrammarAnalysis::minHeightSeq(std::span<const Symbol> Syms) const {
  uint32_t Max = 0;
  for (Symbol S : Syms) {
    uint32_t H = S.isTerminal() ? 1 : MinHeightNt[S.nonterminalId()];
    if (H == UINT32_MAX)
      return UINT32_MAX;
    Max = std::max(Max, H);
  }
  return Max;
}
