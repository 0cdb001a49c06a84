//===- tests/service/ServiceChaosTest.cpp - Seeded chaos battery -------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The chaos harness: hundreds of seeded service runs under combined
// service-level chaos (worker deaths + respawns, queue stalls) and
// parse-path fault injection (cache probes, allocations, cache-exchange
// drops), across worker counts and grammars, asserting the invariants the
// runtime claims:
//
//   - zero crashes (the suite finishing is the assertion; TSan/ASan run it),
//   - exactly one response per submitted request — none lost, none doubled,
//   - bit-identical trees and result kinds vs. a single-threaded reference
//     parse for every request that completes.
//
// Every trial is reproducible from its seed alone; a failing trial writes
// a repro artifact (seed, workers, fault mode, first divergence) into
// $COSTAR_CHAOS_ARTIFACT_DIR (default ./chaos-artifacts) for CI to upload.
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "grammar/Tree.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace costar;
using namespace costar::service;

namespace {

/// S -> 'a' S | 'b'
struct ChainGrammar {
  Grammar G;
  NonterminalId S;
  TerminalId A, B;

  ChainGrammar() {
    S = G.internNonterminal("S");
    A = G.internTerminal("a");
    B = G.internTerminal("b");
    G.addProduction(S, {Symbol::terminal(A), Symbol::nonterminal(S)});
    G.addProduction(S, {Symbol::terminal(B)});
  }

  /// a^NumA b, or a^NumA alone (a Reject word) when Accept is false.
  Word word(size_t NumA, bool Accept = true) const {
    Word W;
    W.reserve(NumA + 1);
    for (size_t I = 0; I < NumA; ++I)
      W.emplace_back(A, "a");
    if (Accept)
      W.emplace_back(B, "b");
    return W;
  }
};

/// P -> '(' P ')' | 'x'
struct ParenGrammar {
  Grammar G;
  NonterminalId P;
  TerminalId L, R, X;

  ParenGrammar() {
    P = G.internNonterminal("P");
    L = G.internTerminal("(");
    R = G.internTerminal(")");
    X = G.internTerminal("x");
    G.addProduction(P, {Symbol::terminal(L), Symbol::nonterminal(P),
                        Symbol::terminal(R)});
    G.addProduction(P, {Symbol::terminal(X)});
  }

  /// (^Depth x )^Depth, unbalanced (a Reject word) when Accept is false.
  Word word(size_t Depth, bool Accept = true) const {
    Word W;
    for (size_t I = 0; I < Depth; ++I)
      W.emplace_back(L, "(");
    W.emplace_back(X, "x");
    for (size_t I = 0; I + (Accept ? 0 : 1) < Depth; ++I)
      W.emplace_back(R, ")");
    return W;
  }
};

/// The fixed request mix every trial replays: two grammars, accept words
/// of varying length, and a Reject word per grammar. Small on purpose —
/// the battery's coverage comes from seeds, not corpus size.
struct TrialCorpus {
  ChainGrammar Chain;
  ParenGrammar Paren;
  /// Request I parses Words[I] on grammar Gram[I] (0 = chain, 1 = paren).
  std::vector<Word> Words;
  std::vector<int> Gram;
  /// Single-threaded reference outcome per request.
  std::vector<ParseResult> Refs;

  TrialCorpus() {
    for (size_t I = 0; I < 10; ++I) {
      Words.push_back(Chain.word(2 + 4 * I));
      Gram.push_back(0);
    }
    for (size_t I = 0; I < 10; ++I) {
      Words.push_back(Paren.word(1 + I));
      Gram.push_back(1);
    }
    Words.push_back(Chain.word(8, /*Accept=*/false));
    Gram.push_back(0);
    Words.push_back(Paren.word(4, /*Accept=*/false));
    Gram.push_back(1);
    for (size_t I = 0; I < Words.size(); ++I)
      Refs.push_back(Gram[I] == 0
                         ? parse(Chain.G, Chain.S, Words[I])
                         : parse(Paren.G, Paren.P, Words[I]));
  }

  size_t size() const { return Words.size(); }
};

/// Writes a reproduction artifact for a failed trial; CI uploads the
/// directory. Best-effort: artifact IO must never mask the test failure.
void writeChaosArtifact(const std::string &Name, const std::string &Body) {
  const char *Env = std::getenv("COSTAR_CHAOS_ARTIFACT_DIR");
  std::filesystem::path Dir = Env ? Env : "chaos-artifacts";
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  std::ofstream Out(Dir / Name);
  Out << Body;
}

/// One seeded trial: run the corpus through a chaos-afflicted service and
/// return a description of the first violated invariant ("" = clean).
std::string runTrial(const TrialCorpus &Corpus, uint64_t Seed,
                     unsigned Workers, bool WithFaults) {
  ServiceChaosPlan Chaos = ServiceChaosPlan::random(Seed, Workers);
  robust::FaultPlan Faults =
      robust::FaultPlan::random(Seed * 0x9E3779B97F4A7C15ull + 1);

  ServiceOptions Opts;
  Opts.Workers = Workers;
  Opts.PinWorkers = false;
  Opts.QueueCapacity = 2 * Corpus.size(); // no queue_full in this battery
  Opts.PublishInterval = 4;
  Opts.Chaos = &Chaos;
  if (WithFaults)
    Opts.Faults = &Faults;

  const size_t N = Corpus.size();
  std::vector<std::atomic<uint32_t>> Hits(N);
  std::vector<Response> Responses(N);
  std::atomic<size_t> Delivered{0};

  ParseService S(Opts);
  uint32_t ChainId = S.addGrammar(Corpus.Chain.G, Corpus.Chain.S);
  uint32_t ParenId = S.addGrammar(Corpus.Paren.G, Corpus.Paren.P);
  S.start();
  for (size_t I = 0; I < N; ++I) {
    Request R;
    R.Id = I;
    R.GrammarId = Corpus.Gram[I] == 0 ? ChainId : ParenId;
    R.Input = &Corpus.Words[I];
    S.submit(R, [&, I](Response &&Resp) {
      if (Hits[I].fetch_add(1, std::memory_order_relaxed) == 0)
        Responses[I] = std::move(Resp);
      Delivered.fetch_add(1, std::memory_order_relaxed);
    });
  }
  S.drain();

  std::ostringstream Bad;
  if (Delivered.load() != N) {
    Bad << "lost responses: delivered " << Delivered.load() << " of " << N;
    return Bad.str();
  }
  for (size_t I = 0; I < N; ++I) {
    if (Hits[I].load() != 1) {
      Bad << "request " << I << " delivered " << Hits[I].load() << " times";
      return Bad.str();
    }
    const Response &R = Responses[I];
    // Queue capacity covers the whole corpus and no request carries a
    // deadline, so chaos may slow requests but never refuse them.
    if (R.Status != ResponseStatus::Done || !R.Result.has_value()) {
      Bad << "request " << I << " status "
          << responseStatusName(R.Status);
      return Bad.str();
    }
    const ParseResult &Ref = Corpus.Refs[I];
    if (R.Result->kind() != Ref.kind()) {
      Bad << "request " << I << " kind diverged from reference";
      return Bad.str();
    }
    if (Ref.accepted() && !treeEquals(R.Result->tree(), Ref.tree())) {
      Bad << "request " << I << " tree diverged from reference";
      return Bad.str();
    }
  }
  return "";
}

} // namespace

TEST(ServiceChaos, SeededBatteryPreservesEveryInvariant) {
  TrialCorpus Corpus;
  // 3 worker counts x 2 fault modes x 35 seeds = 210 seeded trials, each
  // a full service lifecycle under a distinct (chaos plan, fault plan).
  const unsigned WorkerCounts[] = {1, 2, 4};
  const uint64_t SeedsPerCell = 35;
  size_t Trials = 0;
  for (unsigned Workers : WorkerCounts)
    for (int FaultMode = 0; FaultMode < 2; ++FaultMode)
      for (uint64_t Cell = 0; Cell < SeedsPerCell; ++Cell) {
        uint64_t Seed = 1000 * Workers + 100 * FaultMode + Cell;
        std::string Violation =
            runTrial(Corpus, Seed, Workers, FaultMode == 1);
        ++Trials;
        if (!Violation.empty()) {
          std::ostringstream Repro;
          Repro << "seed=" << Seed << " workers=" << Workers
                << " faults=" << FaultMode << "\n"
                << Violation << "\n";
          writeChaosArtifact("chaos_failure_seed" + std::to_string(Seed) +
                                 ".txt",
                             Repro.str());
          FAIL() << "chaos trial violated an invariant: " << Repro.str();
        }
      }
  EXPECT_GE(Trials, 200u);
}

TEST(ServiceChaos, ScriptedDeathsRespawnDeterministically) {
  // One worker, scripted deaths: after its 3rd request (twice), then after
  // its 2nd (once more). All serving state dies with each life; no
  // response may be lost, doubled, or changed by the respawns.
  TrialCorpus Corpus;
  ServiceChaosPlan Chaos;
  Chaos.Deaths.push_back({/*Worker=*/0, /*AfterRequests=*/3,
                          /*MaxDeaths=*/2});
  Chaos.Deaths.push_back({/*Worker=*/0, /*AfterRequests=*/2,
                          /*MaxDeaths=*/1});

  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.PinWorkers = false;
  Opts.QueueCapacity = 2 * Corpus.size();
  Opts.PublishInterval = 2;
  Opts.Chaos = &Chaos;
  ParseService S(Opts);
  uint32_t ChainId = S.addGrammar(Corpus.Chain.G, Corpus.Chain.S);
  uint32_t ParenId = S.addGrammar(Corpus.Paren.G, Corpus.Paren.P);
  S.start();

  const size_t N = Corpus.size();
  std::vector<std::atomic<uint32_t>> Hits(N);
  std::vector<Response> Responses(N);
  for (size_t I = 0; I < N; ++I) {
    Request R;
    R.Id = I;
    R.GrammarId = Corpus.Gram[I] == 0 ? ChainId : ParenId;
    R.Input = &Corpus.Words[I];
    ASSERT_EQ(S.submit(R, [&, I](Response &&Resp) {
      EXPECT_EQ(Hits[I].fetch_add(1, std::memory_order_relaxed), 0u);
      Responses[I] = std::move(Resp);
    }),
              ResponseStatus::Done);
  }
  S.drain();

  // Both arms fire on schedule: life 1 ends at 2 completions (the
  // after-2 arm), lives 2 and 3 at 3 completions each (the after-3 arm,
  // twice), and life 4 serves the rest — deterministically 3 respawns.
  EXPECT_EQ(S.workerRespawns(), 3u);
  EXPECT_EQ(S.report().Metrics.counter("service.chaos.deaths"), 3u);
  EXPECT_EQ(S.report().Metrics.counter("service.respawns"), 3u);
  for (size_t I = 0; I < N; ++I) {
    ASSERT_EQ(Hits[I].load(), 1u) << "request " << I;
    ASSERT_EQ(Responses[I].Status, ResponseStatus::Done);
    ASSERT_TRUE(Responses[I].Result.has_value());
    EXPECT_EQ(Responses[I].Result->kind(), Corpus.Refs[I].kind());
    if (Corpus.Refs[I].accepted()) {
      EXPECT_TRUE(treeEquals(Responses[I].Result->tree(),
                             Corpus.Refs[I].tree()));
    }
  }
}

TEST(ServiceChaos, DeadlineStormNeverLosesOrDoublesAResponse) {
  // A storm of near-zero deadlines: the service may answer each request
  // with Done (possibly BudgetExceeded{Deadline}), Expired, or a deadline
  // rejection — but exactly one of those, for every single request, and
  // the storm must not crash workers or wedge drain.
  ChainGrammar C;
  std::vector<Word> Words;
  for (size_t I = 0; I < 8; ++I)
    Words.push_back(C.word(4 + 40 * I));

  ServiceOptions Opts;
  Opts.Workers = 2;
  Opts.PinWorkers = false;
  // Room for the whole storm: this test is about deadlines, so capacity
  // refusals and shedding are kept out of the picture.
  Opts.QueueCapacity = 512;
  ParseService S(Opts);
  uint32_t Gid = S.addGrammar(C.G, C.S);
  S.start();

  constexpr size_t N = 400;
  std::vector<std::atomic<uint32_t>> Hits(N);
  std::vector<ResponseStatus> Statuses(N, ResponseStatus::Rejected);
  std::vector<uint8_t> BudgetTripped(N, 0);
  for (size_t I = 0; I < N; ++I) {
    Request R;
    R.Id = I;
    R.GrammarId = Gid;
    R.Input = &Words[I % Words.size()];
    R.Class = Priority::Interactive;
    // Every 4th request has no deadline; the rest bracket "now" tightly.
    if (I % 4 != 0)
      R.Deadline = Clock::now() + std::chrono::microseconds(I % 7);
    S.submit(R, [&, I](Response &&Resp) {
      EXPECT_EQ(Hits[I].fetch_add(1, std::memory_order_relaxed), 0u);
      Statuses[I] = Resp.Status;
      if (Resp.Status == ResponseStatus::Done) {
        ASSERT_TRUE(Resp.Result.has_value());
        BudgetTripped[I] =
            Resp.Result->kind() == ParseResult::Kind::BudgetExceeded;
        if (BudgetTripped[I])
          EXPECT_EQ(Resp.Result->budget().Reason,
                    robust::BudgetReason::Deadline);
        else
          EXPECT_EQ(Resp.Result->kind(), ParseResult::Kind::Unique);
      }
    });
  }
  S.drain();

  size_t Done = 0, Expired = 0, Rejected = 0;
  for (size_t I = 0; I < N; ++I) {
    ASSERT_EQ(Hits[I].load(), 1u) << "request " << I;
    switch (Statuses[I]) {
    case ResponseStatus::Done:
      ++Done;
      break;
    case ResponseStatus::Expired:
      ++Expired;
      break;
    case ResponseStatus::Rejected:
      ++Rejected;
      break;
    default:
      FAIL() << "request " << I << " unexpected status "
             << responseStatusName(Statuses[I]);
    }
    // No-deadline requests always parse to completion.
    if (I % 4 == 0) {
      EXPECT_EQ(Statuses[I], ResponseStatus::Done);
      EXPECT_FALSE(BudgetTripped[I]);
    }
  }
  EXPECT_EQ(Done + Expired + Rejected, N);
  // The no-deadline quarter survives any storm.
  EXPECT_GE(Done, N / 4);
}
