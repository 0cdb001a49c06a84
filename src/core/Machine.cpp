//===- core/Machine.cpp - The CoStar stack machine --------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Machine.h"

#include "core/Measure.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>

using namespace costar;

namespace {

/// Hot-path emission guard: the null-pointer test here plus the one-byte
/// enabled() test inside emit() are the only per-event costs when tracing
/// is off or discarded (the <3% overhead budget of bench_trace_overhead).
inline void traceEvent(obs::Tracer *T, obs::EventKind K, uint32_t A = 0,
                       uint32_t B = 0, uint64_t Value = 0, uint64_t Pos = 0) {
  if (T)
    T->emit(K, A, B, Value, Pos);
}

/// First slab of a fresh result arena, from the input length: three tree
/// nodes per token, each with its slot in a parent's forest. The bundled
/// languages build 2.0 (XML) to 7.6 (Python) nodes per token, and with
/// slabs doubling from there every one of them fills its result arena to
/// within about 2.2x of the tree's own bytes, so a result held past the
/// next parse pins little beyond its tree.
size_t resultSlabBytes(size_t Tokens) {
  return (Tokens + 1) * 3 * (sizeof(Tree) + sizeof(TreePtr));
}

} // namespace

Machine::Machine(const Grammar &G, const PredictionTables &Tables,
                 NonterminalId Start, const Word &Input,
                 const ParseOptions &Opts, SllCache *SharedCache)
    : G(G), Tables(Tables), StartSyms({Symbol::nonterminal(Start)}),
      Input(Input), OwnedCache(Opts.Backend),
      Cache(SharedCache ? SharedCache : &OwnedCache), Opts(Opts) {
  if (this->Opts.Alloc == adt::AllocBackend::Arena && !this->Opts.AllocArena)
    OwnedArena = std::make_unique<adt::Arena>();
  // The machine's own cache dies with the machine, before its arena can be
  // rewound by anyone else's run, so its states may keep arena sim stacks.
  OwnedCache.setEpochLocal();
  Stack.push_back(Frame{InvalidProductionId, &StartSyms, 0, {}});
  CacheHitsAtStart = Cache->Hits;
  CacheMissesAtStart = Cache->Misses;
  CacheStatesAtStart = Cache->numStates();
}

Machine::~Machine() {
  // Frames still on the stack (the bottom frame of an accepted parse, or
  // a rejected, failed or stopped parse's whole stack) hold forest buffers
  // in the result arena. Free them while it is installed, where
  // EpochAllocator knows them for arena memory.
  if (Results) {
    adt::ScopedArena Scope(/*Scratch=*/nullptr, Results.get());
    Stack.clear();
  }
}

std::optional<ParseResult> Machine::stepImpl() {
  ++MachineStats.Steps;
  assert(!Stack.empty() && "machine stack underflow");
  Frame &Top = Stack.back();

  if (Top.done()) {
    if (Stack.size() == 1) {
      // Final configuration check (Section 3.3): no more stack symbols, no
      // more tokens, a single tree in the bottom frame.
      if (Pos != Input.size())
        return ParseResult::reject("input remains after the start symbol "
                                   "was fully derived",
                                   Pos);
      if (Top.Trees.size() != 1)
        return ParseResult::error(ParseError::invalidState(
            "bottom frame does not hold exactly one tree"));
      TreePtr Root = Top.Trees.front();
      return UniqueFlag ? ParseResult::unique(std::move(Root))
                        : ParseResult::ambig(std::move(Root));
    }
    // return operation.
    ++MachineStats.Returns;
    Frame Popped = std::move(Stack.back());
    Stack.pop_back();
    Frame &Caller = Stack.back();
    if (Caller.done() || !Caller.headSymbol().isNonterminal())
      return ParseResult::error(ParseError::invalidState(
          "return with no open nonterminal in the caller frame"));
    NonterminalId X = Caller.headSymbol().nonterminalId();
    if (Popped.Prod == InvalidProductionId ||
        G.production(Popped.Prod).Lhs != X)
      return ParseResult::error(ParseError::invalidState(
          "returned frame's production does not reduce the caller's open "
          "nonterminal"));
    traceEvent(Opts.Trace, obs::EventKind::Pop, X, Popped.Prod, 0, Pos);
    Caller.Trees.push_back(Tree::node(X, std::move(Popped.Trees)));
    ++Caller.Next;
    // X is now fully processed; it is no longer "open since the last
    // consume" (required for the visited-set invariant of Lemma 5.10 and
    // for the constant-score return case of Lemma 4.4).
    Visited = Visited.erase(X);
    return std::nullopt;
  }

  Symbol Head = Top.headSymbol();
  if (Head.isTerminal()) {
    // consume operation.
    TerminalId A = Head.terminalId();
    if (Pos == Input.size())
      return ParseResult::reject(
          "unexpected end of input; expected " + G.terminalName(A), Pos);
    const Token &Tok = Input[Pos];
    if (Tok.Term != A)
      return ParseResult::reject("expected " + G.terminalName(A) +
                                     ", found " + G.terminalName(Tok.Term) +
                                     " '" + Tok.Lexeme + "'",
                                 Pos);
    ++MachineStats.Consumes;
    traceEvent(Opts.Trace, obs::EventKind::Consume, A, 0, 0, Pos);
    Top.Trees.push_back(Tree::leaf(Tok));
    ++Top.Next;
    ++Pos;
    Visited = VisitedSet();
    return std::nullopt;
  }

  // push operation.
  NonterminalId X = Head.nonterminalId();
  if (Visited.contains(X))
    return ParseResult::error(ParseError::leftRecursive(X));

  traceEvent(Opts.Trace, obs::EventKind::PredictEnter, X, 0, Stack.size(),
             Pos);
  PredictionResult Prediction;
  robust::BudgetTracker *Bt = Budget.enabled() ? &Budget : nullptr;
  if (Opts.Mode == ParseOptions::PredictionMode::LlOnly) {
    ++MachineStats.Pred.Predictions;
    Prediction = llPredict(G, X, Stack, Visited, Input, Pos, Bt);
  } else {
    Prediction = adaptivePredict(G, Tables, *Cache, X, Stack, Visited, Input,
                                 Pos, &MachineStats.Pred, Opts.Trace, Bt);
  }
  traceEvent(Opts.Trace, obs::EventKind::PredictResolve, X,
             Prediction.ResultKind == PredictionResult::Kind::Unique ||
                     Prediction.ResultKind == PredictionResult::Kind::Ambig
                 ? Prediction.Prod
                 : UINT32_MAX,
             static_cast<uint64_t>(Prediction.ResultKind), Pos);

  switch (Prediction.ResultKind) {
  case PredictionResult::Kind::Ambig:
    // A genuine (LL-mode) ambiguity: record it and keep parsing with the
    // chosen alternative (Section 5.3).
    traceEvent(Opts.Trace, obs::EventKind::AmbigDetected, X, Prediction.Prod,
               0, Pos);
    UniqueFlag = false;
    [[fallthrough]];
  case PredictionResult::Kind::Unique: {
    ++MachineStats.Pushes;
    robust::injectPoint(robust::FaultSite::FrameAlloc);
    traceEvent(Opts.Trace, obs::EventKind::Push, X, Prediction.Prod, 0, Pos);
    const Production &P = G.production(Prediction.Prod);
    assert(P.Lhs == X && "prediction returned a right-hand side for the "
                         "wrong nonterminal");
    Visited = Visited.insert(X);
    Stack.push_back(Frame{Prediction.Prod, &P.Rhs, 0, {}});
    // Exactly sized: the forest never regrows, so no dead buffer is left
    // in the result arena.
    Stack.back().Trees.reserve(P.Rhs.size());
    return std::nullopt;
  }
  case PredictionResult::Kind::Reject:
    return ParseResult::reject(
        "no viable alternative for " + G.nonterminalName(X), Pos);
  case PredictionResult::Kind::Error:
    return ParseResult::error(Prediction.Err);
  }
  return ParseResult::error(
      ParseError::invalidState("unreachable prediction result"));
}

ParseResult Machine::run() {
  // Install the caller's fault injector (if any) for the duration of the
  // run; nested installation is safe, so a caller that already holds a
  // ScopedFaultInjector may also pass Opts.Faults.
  std::optional<robust::ScopedFaultInjector> FaultScope;
  if (Opts.Faults)
    FaultScope.emplace(*Opts.Faults);
  // Open the allocation epoch: rewind the scratch arena (reclaiming the
  // previous parse's machine state wholesale — the epoch spans from one
  // run start to the next, so post-run stack()/stats() introspection stays
  // valid), take the result arena paired with it, and install both for
  // every allocation the run performs. Manual step() drivers never
  // install an arena and therefore get owning heap allocations regardless
  // of Opts.Alloc.
  adt::Arena *Scratch = nullptr;
  if (Opts.Alloc == adt::AllocBackend::Arena) {
    // One epoch per machine: a second run() would rewind the arena under
    // this machine's own frames, trees and epoch-local cache states.
    assert(!Results && "Machine::run() opens one arena epoch; use a fresh "
                       "Machine per parse");
    Scratch = Opts.AllocArena ? Opts.AllocArena : OwnedArena.get();
    Scratch->reset();
    Results = Scratch->nextResultArena(resultSlabBytes(Input.size()));
  }
  std::optional<adt::ScopedArena> ArenaScope;
  if (Scratch)
    ArenaScope.emplace(Scratch, Results.get());
  uint64_t NodesBase = adt::AllocationCounters::nodes();
  uint64_t BytesBase = adt::AllocationCounters::bytes();
  Budget.arm(Opts.Budget);
  traceEvent(Opts.Trace, obs::EventKind::ParseBegin,
             StartSyms[0].nonterminalId(), 0, Input.size(), Pos);
  ParseResult Result = runLoop();
  MachineStats.AllocNodes = adt::AllocationCounters::nodes() - NodesBase;
  MachineStats.AllocBytes = adt::AllocationCounters::bytes() - BytesBase;
  // An accepted tree escapes by co-owning the result arena it was built
  // in; nothing is copied.
  if (Results && Result.accepted()) {
    TreePtr Owned = adt::Arena::handOff(Results, Result.tree().get());
    Result = Result.kind() == ParseResult::Kind::Unique
                 ? ParseResult::unique(std::move(Owned))
                 : ParseResult::ambig(std::move(Owned));
  }
  if (Result.kind() == ParseResult::Kind::BudgetExceeded)
    traceEvent(Opts.Trace, obs::EventKind::BudgetExceeded,
               static_cast<uint32_t>(Result.budget().Reason), 0,
               MachineStats.Steps, Pos);
  else if (Result.kind() == ParseResult::Kind::Error &&
           Result.err().Kind == ParseErrorKind::FaultInjected)
    traceEvent(Opts.Trace, obs::EventKind::FaultInjected,
               static_cast<uint32_t>(Result.err().Site), 0,
               MachineStats.Steps, Pos);
  traceEvent(Opts.Trace, obs::EventKind::ParseEnd,
             static_cast<uint32_t>(Result.kind()), 0, MachineStats.Steps,
             Pos);
  if (Opts.Metrics)
    publishMetrics(Result);
  return Result;
}

/// Publishes this run's per-parse deltas into the metrics registry. The
/// counter names are the stable observability schema; EXPERIMENTS.md
/// documents them.
void Machine::publishMetrics(const ParseResult &Result) const {
  obs::MetricsRegistry &M = *Opts.Metrics;
  M.add("parse.count");
  switch (Result.kind()) {
  case ParseResult::Kind::Unique:
    M.add("result.unique");
    break;
  case ParseResult::Kind::Ambig:
    M.add("result.ambig");
    break;
  case ParseResult::Kind::Reject:
    M.add("result.reject");
    break;
  case ParseResult::Kind::Error:
    M.add("result.error");
    if (Result.err().Kind == ParseErrorKind::FaultInjected)
      M.add(std::string("fault.") +
            robust::faultSiteName(Result.err().Site));
    break;
  case ParseResult::Kind::BudgetExceeded:
    M.add("result.budget_exceeded");
    M.add(std::string("budget.") +
          robust::budgetReasonName(Result.budget().Reason));
    break;
  }
  M.add("machine.steps", MachineStats.Steps);
  M.add("machine.consumes", MachineStats.Consumes);
  M.add("machine.pushes", MachineStats.Pushes);
  M.add("machine.returns", MachineStats.Returns);
  M.add("predict.calls", MachineStats.Pred.Predictions);
  M.add("predict.sll", MachineStats.Pred.SllPredictions);
  M.add("predict.failovers", MachineStats.Pred.Failovers);
  M.add("cache.hits", MachineStats.CacheHits);
  M.add("cache.misses", MachineStats.CacheMisses);
  M.add("cache.states_added", MachineStats.CacheStatesAdded);
  M.add("alloc.nodes", MachineStats.AllocNodes);
  M.add("alloc.bytes", MachineStats.AllocBytes);
  M.record("parse.tokens", Input.size());
  M.record("parse.steps", MachineStats.Steps);
}

ParseResult Machine::runLoop() {
  Measure Prev;
  bool HavePrev = false;
  for (;;) {
    // Abort-class faults raised by infrastructure during the previous step
    // (tree/frame allocation, cache probes) unwind here, at a clean machine
    // boundary — never mid-operation.
    if (std::optional<robust::FaultSite> F = robust::takePendingFault())
      return ParseResult::error(ParseError::faultInjected(*F));
    if (Opts.CheckInvariants) {
      std::string Violation = checkMachineInvariants(G, Stack, Visited);
      if (!Violation.empty())
        return ParseResult::error(ParseError::invalidState(
            "invariant violation: " + Violation));
      Measure Cur = computeMeasure(G, Stack, Visited, tokensRemaining());
      if (HavePrev && !Cur.lexLess(Prev))
        return ParseResult::error(ParseError::invalidState(
            "step failed to decrease the termination measure: " +
            Prev.toString() + " -> " + Cur.toString()));
      Prev = std::move(Cur);
      HavePrev = true;
    }
    if (std::optional<robust::BudgetReason> R =
            Budget.checkSteps(MachineStats.Steps))
      return budgetResult(*R);
    if (std::optional<ParseResult> Result = step()) {
      // A fault raised while building the *final* result (e.g. the last
      // tree node) still wins: the result would embed the failed
      // allocation.
      if (std::optional<robust::FaultSite> F = robust::takePendingFault())
        return ParseResult::error(ParseError::faultInjected(*F));
      // Budgets tripped inside prediction come back as an internal error
      // marker; convert to the structured outcome with partial progress.
      if (Result->kind() == ParseResult::Kind::Error &&
          Result->err().Kind == ParseErrorKind::BudgetExceeded)
        return budgetResult(Result->err().Why);
      return *Result;
    }
  }
}

ParseResult Machine::budgetResult(robust::BudgetReason Reason) const {
  robust::BudgetExceededInfo Info;
  Info.Reason = Reason;
  Info.Steps = MachineStats.Steps;
  Info.TokensConsumed = Pos;
  Info.CacheHits = MachineStats.CacheHits;
  Info.CacheMisses = MachineStats.CacheMisses;
  // The innermost open production's LHS is the nonterminal being derived
  // when the budget tripped.
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It)
    if (It->Prod != InvalidProductionId) {
      Info.CurrentNt = G.production(It->Prod).Lhs;
      Info.HaveCurrentNt = true;
      break;
    }
  return ParseResult::budgetExceeded(Info);
}

std::string costar::checkMachineInvariants(const Grammar &G,
                                           std::span<const Frame> Stack,
                                           const VisitedSet &Visited) {
  if (Stack.empty())
    return "empty frame stack";

  // WfInit / WfFinal: the bottom frame processes exactly the start symbol.
  const Frame &Bottom = Stack.front();
  if (Bottom.Prod != InvalidProductionId)
    return "bottom frame carries a grammar production";
  if (Bottom.Syms->size() != 1 || !(*Bottom.Syms)[0].isNonterminal())
    return "bottom frame does not hold a single start nonterminal";

  for (size_t I = 0; I < Stack.size(); ++I) {
    const Frame &F = Stack[I];
    if (F.Next > F.Syms->size())
      return "frame processed past the end of its right-hand side";
    if (F.Trees.size() != F.Next)
      return "frame tree count does not match its processed symbols";
    for (size_t J = 0; J < F.Next; ++J)
      if (F.Trees[J]->rootSymbol() != (*F.Syms)[J])
        return "frame tree root does not match its processed symbol";

    if (I == 0)
      continue;
    // WfUpper: each upper frame holds a complete right-hand side for the
    // open nonterminal in the frame below.
    if (F.Prod == InvalidProductionId)
      return "upper frame carries no grammar production";
    if (F.Syms != &G.production(F.Prod).Rhs)
      return "upper frame symbols are not its production's right-hand side";
    const Frame &Caller = Stack[I - 1];
    if (Caller.done() || !Caller.headSymbol().isNonterminal())
      return "caller frame has no open nonterminal";
    if (Caller.headSymbol().nonterminalId() != G.production(F.Prod).Lhs)
      return "upper frame's production does not expand the caller's open "
             "nonterminal";
  }

  // Visited-set invariant (Lemma 5.10, sharpened): the visited set is
  // exactly the left-hand sides of the top |Visited| frames, the frames
  // pushed since the last consume. Each of those is open in the frame
  // below it (WfUpper), which is the lemma's statement; LL prediction
  // also seeds its subparsers' visited frames from this.
  size_t NumVisited = Visited.size();
  if (NumVisited >= Stack.size())
    return "visited set is larger than the pushed frames";
  std::vector<NonterminalId> TopLhs;
  for (size_t I = Stack.size() - NumVisited; I < Stack.size(); ++I) {
    NonterminalId Lhs = G.production(Stack[I].Prod).Lhs;
    if (!Visited.contains(Lhs))
      return "pushed frame for " + G.nonterminalName(Lhs) +
             " is not in the visited set";
    TopLhs.push_back(Lhs);
  }
  std::sort(TopLhs.begin(), TopLhs.end());
  if (std::adjacent_find(TopLhs.begin(), TopLhs.end()) != TopLhs.end())
    return "visited set is not the left-hand sides of the top frames";
  return "";
}
