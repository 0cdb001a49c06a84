//===- analysis/Engine.cpp - Static grammar-analysis engine ---------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Engine.h"

#include "grammar/Analysis.h"
#include "grammar/LeftRecursion.h"

#include <algorithm>
#include <queue>

using namespace costar;
using namespace costar::analysis;

namespace {

/// Renders a nonterminal for messages, naming the originating rule for
/// desugared nonterminals ("stmt__star0 (from rule 'stmt')").
std::string ntText(const Grammar &G, const SourceMap *Spans,
                   NonterminalId X) {
  std::string Out = "'" + G.nonterminalName(X) + "'";
  if (Spans && Spans->synthesized(X))
    Out += " (desugared from rule '" +
           G.nonterminalName(Spans->origin(X)) + "')";
  return Out;
}

SourceSpan ntSpan(const SourceMap *Spans, NonterminalId X) {
  return Spans ? Spans->nonterminal(X) : SourceSpan{};
}

SourceSpan prodSpan(const SourceMap *Spans, ProductionId P) {
  return Spans ? Spans->production(P) : SourceSpan{};
}

//===----------------------------------------------------------------------===//
// Left recursion, classified
//===----------------------------------------------------------------------===//

/// One left-corner edge X => Y: production X -> alpha Y beta with nullable
/// alpha. Hidden records whether alpha is non-empty (the recursion hides
/// behind nullable symbols).
struct LeftCornerEdge {
  NonterminalId To;
  ProductionId Prod;
  bool Hidden;
};

std::vector<std::vector<LeftCornerEdge>>
leftCornerEdges(const Grammar &G, const GrammarAnalysis &A) {
  std::vector<std::vector<LeftCornerEdge>> Succ(G.numNonterminals());
  for (ProductionId Id = 0; Id < G.numProductions(); ++Id) {
    const Production &P = G.production(Id);
    for (size_t I = 0; I < P.Rhs.size(); ++I) {
      Symbol S = P.Rhs[I];
      if (S.isTerminal())
        break;
      NonterminalId Y = S.nonterminalId();
      Succ[P.Lhs].push_back(LeftCornerEdge{Y, Id, I > 0});
      if (!A.nullable(Y))
        break;
    }
  }
  return Succ;
}

/// Shortest left-corner cycle through \p X, restricted to left-recursive
/// nonterminals, as "x -> y -> x" for messages. BFS over the edge list.
std::string cycleText(const Grammar &G,
                      const std::vector<std::vector<LeftCornerEdge>> &Succ,
                      const std::vector<bool> &InLrSet, NonterminalId X) {
  std::vector<NonterminalId> Parent(Succ.size(), UINT32_MAX);
  std::vector<bool> Seen(Succ.size(), false);
  std::queue<NonterminalId> Queue;
  Queue.push(X);
  Seen[X] = true;
  NonterminalId Last = UINT32_MAX;
  while (!Queue.empty() && Last == UINT32_MAX) {
    NonterminalId V = Queue.front();
    Queue.pop();
    for (const LeftCornerEdge &E : Succ[V]) {
      if (!InLrSet[E.To])
        continue;
      if (E.To == X) {
        Last = V;
        break;
      }
      if (!Seen[E.To]) {
        Seen[E.To] = true;
        Parent[E.To] = V;
        Queue.push(E.To);
      }
    }
  }
  if (Last == UINT32_MAX)
    return G.nonterminalName(X); // defensive: X is known to be on a cycle
  std::vector<NonterminalId> Mid;
  for (NonterminalId V = Last; V != X; V = Parent[V])
    Mid.push_back(V);
  std::vector<NonterminalId> Forward{X};
  Forward.insert(Forward.end(), Mid.rbegin(), Mid.rend());
  Forward.push_back(X);
  std::string Out;
  for (size_t I = 0; I < Forward.size(); ++I) {
    if (I)
      Out += " -> ";
    Out += G.nonterminalName(Forward[I]);
  }
  return Out;
}

/// True if \p X lies on a cycle of the given filtered edge relation
/// (restricted to \p Allowed nodes and edges passing \p Keep).
template <typename EdgeFilter>
bool onCycle(const std::vector<std::vector<LeftCornerEdge>> &Succ,
             const std::vector<bool> &Allowed, NonterminalId X,
             EdgeFilter Keep) {
  std::vector<bool> Seen(Succ.size(), false);
  std::queue<NonterminalId> Queue;
  Queue.push(X);
  while (!Queue.empty()) {
    NonterminalId V = Queue.front();
    Queue.pop();
    for (const LeftCornerEdge &E : Succ[V]) {
      if (!Allowed[E.To] || !Keep(E))
        continue;
      if (E.To == X)
        return true;
      if (!Seen[E.To]) {
        Seen[E.To] = true;
        Queue.push(E.To);
      }
    }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Derivation cycles (X =>+ X in a fully nullable context)
//===----------------------------------------------------------------------===//

/// Edges X => Y where some production X -> alpha Y beta has BOTH alpha and
/// beta nullable: a cycle in this relation derives X =>+ X, so any word X
/// derives has infinitely many parse trees.
std::vector<std::vector<LeftCornerEdge>>
nullableContextEdges(const Grammar &G, const GrammarAnalysis &A) {
  std::vector<std::vector<LeftCornerEdge>> Succ(G.numNonterminals());
  for (ProductionId Id = 0; Id < G.numProductions(); ++Id) {
    const Production &P = G.production(Id);
    for (size_t I = 0; I < P.Rhs.size(); ++I) {
      Symbol S = P.Rhs[I];
      if (!S.isNonterminal())
        continue;
      std::span<const Symbol> Alpha(P.Rhs.data(), I);
      std::span<const Symbol> Beta(P.Rhs.data() + I + 1,
                                   P.Rhs.size() - I - 1);
      if (A.nullableSeq(Alpha) && A.nullableSeq(Beta))
        Succ[P.Lhs].push_back(LeftCornerEdge{S.nonterminalId(), Id, false});
    }
  }
  return Succ;
}

//===----------------------------------------------------------------------===//
// LL(1) conflict prediction
//===----------------------------------------------------------------------===//

struct CellClaim {
  ProductionId Prod = InvalidProductionId;
  Ll1ClaimSource Source = Ll1ClaimSource::First;
};

/// One aggregated conflict between two productions of a nonterminal.
struct Conflict {
  NonterminalId Nt;
  ProductionId First, Second;
  bool FirstFirst; // FIRST/FIRST (AMB002) vs FIRST/FOLLOW (AMB003)
  std::vector<std::string> Lookaheads;
};

std::vector<Conflict> findLl1Conflicts(const Grammar &G,
                                       const GrammarAnalysis &A) {
  uint32_t Stride = G.numTerminals() + 1; // last column = end of input
  std::vector<CellClaim> Table(static_cast<size_t>(G.numNonterminals()) *
                               Stride);
  std::vector<Conflict> Out;

  auto Lookahead = [&](uint32_t T) {
    return T + 1 == Stride ? std::string("<end-of-input>")
                           : "'" + G.terminalName(T) + "'";
  };

  auto Claim = [&](ProductionId P, NonterminalId X, uint32_t T,
                   Ll1ClaimSource Source) {
    CellClaim &Cell = Table[static_cast<size_t>(X) * Stride + T];
    if (Cell.Prod == InvalidProductionId) {
      Cell = CellClaim{P, Source};
      return;
    }
    if (Cell.Prod == P)
      return;
    bool FirstFirst = Cell.Source == Ll1ClaimSource::First &&
                      Source == Ll1ClaimSource::First;
    for (Conflict &C : Out) {
      if (C.Nt == X && C.First == Cell.Prod && C.Second == P &&
          C.FirstFirst == FirstFirst) {
        C.Lookaheads.push_back(Lookahead(T));
        return;
      }
    }
    Out.push_back(Conflict{X, Cell.Prod, P, FirstFirst, {Lookahead(T)}});
  };

  // Shared claim enumeration (grammar/FirstFollow.h): the same routine
  // that fills ll1::Ll1Table, so the static conflict report and the LL(1)
  // parser generator can never disagree about a cell.
  forEachLl1Claim(G, A.tables(), Claim);
  return Out;
}

std::string joinLookaheads(const std::vector<std::string> &Lookaheads) {
  std::string Out;
  size_t Shown = std::min<size_t>(Lookaheads.size(), 3);
  for (size_t I = 0; I < Shown; ++I) {
    if (I)
      Out += ", ";
    Out += Lookaheads[I];
  }
  if (Lookaheads.size() > Shown)
    Out += " (+" + std::to_string(Lookaheads.size() - Shown) + " more)";
  return Out;
}

} // namespace

const char *costar::analysis::messyDemoGrammarText() {
  // Findings, with positions the golden tests pin: direct left recursion
  // on expr (line 6) and dead (line 7), nonproductive dead, unreachable
  // dead and orphan (line 8), and the classic dangling-else FIRST/FIRST
  // conflict on stmt (lines 3-4).
  return "// A deliberately messy grammar: left recursion, useless\n"
         "// symbols, and a non-LL(1) decision.\n"
         "stmt   : 'if' COND 'then' stmt\n"
         "       | 'if' COND 'then' stmt 'else' stmt\n"
         "       | expr ;\n"
         "expr   : expr '+' NUM | NUM ;\n"
         "dead   : dead 'x' ;\n"
         "orphan : NUM ;\n";
}

AnalysisReport costar::analysis::analyze(const Grammar &G,
                                         NonterminalId Start,
                                         const SourceMap *Spans,
                                         const AnalysisOptions &Opts) {
  AnalysisReport R;
  GrammarAnalysis A(G, Start);

  //--- Left recursion (LR001/LR002/LR003), subsuming LeftRecursion.h: the
  //--- verdict set is exactly leftRecursiveNonterminals(A); the engine
  //--- adds the direct/indirect/hidden classification and cycle witness.
  R.LeftRecursive = leftRecursiveNonterminals(A);
  R.LeftRecursionFree = R.LeftRecursive.empty();
  std::vector<bool> InLrSet(G.numNonterminals(), false);
  for (NonterminalId X : R.LeftRecursive)
    InLrSet[X] = true;
  std::vector<std::vector<LeftCornerEdge>> LeftCorner = leftCornerEdges(G, A);
  for (NonterminalId X : R.LeftRecursive) {
    bool DirectVisible = false;
    for (const LeftCornerEdge &E : LeftCorner[X])
      if (E.To == X && !E.Hidden)
        DirectVisible = true;
    RuleCode Code;
    std::string Kind;
    if (DirectVisible) {
      Code = RuleCode::LR001;
      Kind = "directly left-recursive";
    } else if (onCycle(LeftCorner, InLrSet, X,
                       [](const LeftCornerEdge &E) { return !E.Hidden; })) {
      Code = RuleCode::LR002;
      Kind = "indirectly left-recursive";
    } else {
      Code = RuleCode::LR003;
      Kind = "left-recursive through a nullable prefix (hidden)";
    }
    Diagnostic D;
    D.Code = Code;
    D.Sev = ruleInfo(Code).DefaultSeverity;
    D.Nt = X;
    D.Span = ntSpan(Spans, X);
    D.Message = ntText(G, Spans, X) + " is " + Kind + ": left-corner cycle " +
                cycleText(G, LeftCorner, InLrSet, X);
    D.Hint = Code == RuleCode::LR003
                 ? "hidden left recursion is outside Paull's rewrite; make "
                   "the nullable prefix explicit or restructure the rule"
                 : "rewrite as right recursion, or apply "
                   "xform::eliminateLeftRecursion (Paull's rewrite)";
    R.Diags.push_back(std::move(D));
  }

  //--- Derivation cycles (AMB001).
  {
    std::vector<std::vector<LeftCornerEdge>> Ctx = nullableContextEdges(G, A);
    std::vector<bool> All(G.numNonterminals(), true);
    for (NonterminalId X = 0; X < G.numNonterminals(); ++X) {
      if (Ctx[X].empty())
        continue;
      if (!onCycle(Ctx, All, X, [](const LeftCornerEdge &) { return true; }))
        continue;
      Diagnostic D;
      D.Code = RuleCode::AMB001;
      D.Sev = ruleInfo(RuleCode::AMB001).DefaultSeverity;
      D.Nt = X;
      D.Span = ntSpan(Spans, X);
      D.Message = ntText(G, Spans, X) +
                  " derives itself in a nullable context (A =>+ A): every "
                  "word it derives has infinitely many parse trees";
      D.Hint = "break the cycle by removing the epsilon/unit step";
      R.Diags.push_back(std::move(D));
    }
  }

  //--- Nonproductive (USE001).
  for (NonterminalId X = 0; X < G.numNonterminals(); ++X) {
    if (A.productive(X))
      continue;
    R.Nonproductive.push_back(X);
    Diagnostic D;
    D.Code = RuleCode::USE001;
    D.Sev = ruleInfo(RuleCode::USE001).DefaultSeverity;
    D.Nt = X;
    D.Span = ntSpan(Spans, X);
    D.Message = ntText(G, Spans, X) + " derives no terminal string";
    D.Hint = "add a base-case alternative or delete the rule";
    R.Diags.push_back(std::move(D));
  }

  //--- Unreachable (USE002): BFS from the start symbol.
  {
    std::vector<bool> Reachable(G.numNonterminals(), false);
    std::queue<NonterminalId> Queue;
    Reachable[Start] = true;
    Queue.push(Start);
    while (!Queue.empty()) {
      NonterminalId X = Queue.front();
      Queue.pop();
      for (ProductionId Id : G.productionsFor(X))
        for (Symbol S : G.production(Id).Rhs)
          if (S.isNonterminal() && !Reachable[S.nonterminalId()]) {
            Reachable[S.nonterminalId()] = true;
            Queue.push(S.nonterminalId());
          }
    }
    for (NonterminalId X = 0; X < G.numNonterminals(); ++X) {
      if (Reachable[X])
        continue;
      R.Unreachable.push_back(X);
      Diagnostic D;
      D.Code = RuleCode::USE002;
      D.Sev = ruleInfo(RuleCode::USE002).DefaultSeverity;
      D.Nt = X;
      D.Span = ntSpan(Spans, X);
      D.Message = ntText(G, Spans, X) + " is unreachable from '" +
                  G.nonterminalName(Start) + "'";
      D.Hint = "reference the rule from a reachable one or delete it";
      R.Diags.push_back(std::move(D));
    }
  }

  //--- Duplicate productions (USE003).
  for (NonterminalId X = 0; X < G.numNonterminals(); ++X) {
    const std::vector<ProductionId> &Prods = G.productionsFor(X);
    for (size_t I = 0; I < Prods.size(); ++I)
      for (size_t J = 0; J < I; ++J) {
        if (G.production(Prods[I]).Rhs != G.production(Prods[J]).Rhs)
          continue;
        Diagnostic D;
        D.Code = RuleCode::USE003;
        D.Sev = ruleInfo(RuleCode::USE003).DefaultSeverity;
        D.Nt = X;
        D.Prod = Prods[I];
        D.Span = prodSpan(Spans, Prods[I]);
        D.Message = "duplicate production " +
                    G.productionToString(Prods[I]) +
                    "; prediction always resolves to the first copy";
        D.Hint = "delete the duplicate alternative";
        R.Diags.push_back(std::move(D));
        break; // one report per duplicated production
      }
  }

  //--- LL(1) conflict prediction (AMB002/AMB003).
  {
    std::vector<Conflict> Conflicts = findLl1Conflicts(G, A);
    R.Ll1Clean = Conflicts.empty();
    for (const Conflict &C : Conflicts) {
      RuleCode Code = C.FirstFirst ? RuleCode::AMB002 : RuleCode::AMB003;
      Diagnostic D;
      D.Code = Code;
      D.Sev = ruleInfo(Code).DefaultSeverity;
      D.Nt = C.Nt;
      D.Prod = C.Second;
      D.Span = prodSpan(Spans, C.Second);
      D.Message = std::string(C.FirstFirst ? "FIRST/FIRST" : "FIRST/FOLLOW") +
                  " conflict in " + ntText(G, Spans, C.Nt) + " on " +
                  joinLookaheads(C.Lookaheads) + ": " +
                  G.productionToString(C.First) + "  vs  " +
                  G.productionToString(C.Second);
      D.Hint = C.FirstFirst
                   ? "left-factor the shared prefix (xform::leftFactor) or "
                     "rely on ALL(*) multi-token prediction"
                   : "the nullable alternative overlaps FOLLOW; restructure "
                     "or rely on ALL(*) multi-token prediction";
      R.Diags.push_back(std::move(D));
    }
  }

  //--- Verdict (LL001): statically predicts zero SLL->LL failovers.
  if (Opts.EmitVerdicts && R.Ll1Clean) {
    Diagnostic D;
    D.Code = RuleCode::LL001;
    D.Sev = ruleInfo(RuleCode::LL001).DefaultSeverity;
    D.Nt = Start;
    D.Span = ntSpan(Spans, Start);
    D.Message = "grammar is LL(1)-clean: SLL prediction can never fall "
                "back to full LL (one-token lookahead always decides)";
    R.Diags.push_back(std::move(D));
  }

  //--- Metrics (MET001).
  {
    GrammarMetrics &M = R.Metrics;
    M.Nonterminals = G.numNonterminals();
    M.Terminals = G.numTerminals();
    M.Productions = G.numProductions();
    M.MaxRhsLen = static_cast<uint32_t>(G.maxRhsLen());
    uint64_t TotalRhs = 0;
    for (ProductionId Id = 0; Id < G.numProductions(); ++Id) {
      const Production &P = G.production(Id);
      TotalRhs += P.Rhs.size();
      if (P.Rhs.empty())
        ++M.EpsilonProductions;
      if (P.Rhs.size() == 1 && P.Rhs[0].isNonterminal())
        ++M.UnitProductions;
    }
    if (M.Productions)
      M.AvgRhsLenX100 =
          static_cast<uint32_t>(TotalRhs * 100 / M.Productions);
    for (NonterminalId X = 0; X < G.numNonterminals(); ++X)
      if (A.nullable(X))
        ++M.NullableNonterminals;
    if (Opts.EmitMetrics) {
      Diagnostic D;
      D.Code = RuleCode::MET001;
      D.Sev = ruleInfo(RuleCode::MET001).DefaultSeverity;
      D.Message =
          "metrics: " + std::to_string(M.Nonterminals) + " nonterminals, " +
          std::to_string(M.Terminals) + " terminals, " +
          std::to_string(M.Productions) + " productions, max RHS " +
          std::to_string(M.MaxRhsLen) + ", avg RHS " +
          std::to_string(M.AvgRhsLenX100 / 100) + "." +
          (M.AvgRhsLenX100 % 100 < 10 ? "0" : "") +
          std::to_string(M.AvgRhsLenX100 % 100) + ", " +
          std::to_string(M.NullableNonterminals) + " nullable, " +
          std::to_string(M.EpsilonProductions) + " epsilon, " +
          std::to_string(M.UnitProductions) + " unit";
      R.Diags.push_back(std::move(D));
    }
  }

  return R;
}
