//===- robust/Degradation.cpp - Graceful backend degradation ----------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "robust/Degradation.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <optional>

using namespace costar;
using namespace costar::robust;

static bool retryable(const ParseResult &R, const ParseOptions &Opts) {
  if (Opts.Backend != CacheBackend::Hashed)
    return false;
  if (R.kind() != ParseResult::Kind::Error)
    return false;
  ParseErrorKind K = R.err().Kind;
  return K == ParseErrorKind::InvalidState ||
         K == ParseErrorKind::FaultInjected;
}

RobustOutcome costar::robust::parseRobust(const Grammar &G,
                                          const PredictionTables &Tables,
                                          NonterminalId Start,
                                          const Word &Input,
                                          const ParseOptions &Opts,
                                          SllCache *SharedCache,
                                          Machine::Stats *StatsOut) {
  // The first machine is destroyed before the retry runs: both may share
  // one scratch arena (Opts.AllocArena), and the retry's run() rewinds it
  // and may reuse the paired result arena — the failed attempt's frames
  // must not outlive that rewind. Its *result* safely does: an accepted
  // tree co-owns its result arena, and retryable results carry no trees
  // at all.
  uint64_t FirstSteps = 0;
  std::optional<ParseResult> FirstResult;
  {
    Machine First(G, Tables, Start, Input, Opts, SharedCache);
    FirstResult = First.run();
    if (StatsOut)
      StatsOut->accumulate(First.stats());
    FirstSteps = First.stats().Steps;
  }
  if (!retryable(*FirstResult, Opts))
    return RobustOutcome{std::move(*FirstResult), false, false, {}};

  std::string FirstError = FirstResult->err().Message;
  ParseOptions Retry = Opts;
  Retry.Backend = CacheBackend::AvlPaperFaithful;
  // The retry runs on a fresh machine-local cache: whatever state the
  // failed attempt touched (local or shared) is abandoned, not repaired.
  Retry.ReuseCache = false;
  Machine Second(G, Tables, Start, Input, Retry, nullptr);
  ParseResult RetryResult = Second.run();
  if (StatsOut)
    StatsOut->accumulate(Second.stats());

  bool Recovered = RetryResult.kind() != ParseResult::Kind::Error;
  if (Opts.Trace)
    Opts.Trace->emit(obs::EventKind::BackendDowngrade, Recovered ? 1 : 0, 0,
                     FirstSteps + Second.stats().Steps);
  if (Opts.Metrics) {
    Opts.Metrics->add("robust.downgrades");
    if (Recovered)
      Opts.Metrics->add("robust.recoveries");
  }
  return RobustOutcome{std::move(RetryResult), true, Recovered,
                       std::move(FirstError)};
}
