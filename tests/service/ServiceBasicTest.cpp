//===- tests/service/ServiceBasicTest.cpp - Service runtime semantics --------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The parse-service runtime's end-to-end failure semantics, one tier at a
// time: lifecycle and exactly-once delivery, front-door refusals,
// grammar-affinity routing with warm-cache sharing, FIFO service order,
// deadline propagation into the parse budget, deterministic admission
// decisions, overload shedding by priority class, the per-grammar
// circuit breaker, and the drain-vs-submit race. The chaos
// battery (ServiceChaosTest.cpp) composes these under injected failure;
// this file pins each behavior down in isolation.
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "grammar/Tree.h"

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

using namespace costar;
using namespace costar::service;

namespace {

/// S -> 'a' S | 'b'   (words: a^n b)
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

/// P -> '(' P ')' | 'x'   (a second grammar for routing tests)
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

  Word word(size_t Depth) const {
    Word W;
    for (size_t I = 0; I < Depth; ++I)
      W.emplace_back(L, "(");
    W.emplace_back(X, "x");
    for (size_t I = 0; I < Depth; ++I)
      W.emplace_back(R, ")");
    return W;
  }
};

/// Thread-safe response collector asserting exactly-once delivery per id.
struct Collector {
  explicit Collector(size_t N) : Hits(N), Responses(N) {}

  ResponseCallback callback() {
    return [this](Response &&R) {
      ASSERT_LT(R.Id, Hits.size());
      // fetch_add returning 0 is the one permitted delivery.
      EXPECT_EQ(Hits[R.Id].fetch_add(1, std::memory_order_relaxed), 0u)
          << "duplicate response for request " << R.Id;
      Responses[R.Id] = std::move(R);
      Delivered.fetch_add(1, std::memory_order_release);
    };
  }

  void awaitAll() {
    while (Delivered.load(std::memory_order_acquire) < Hits.size())
      std::this_thread::yield();
  }

  size_t delivered() const {
    return Delivered.load(std::memory_order_acquire);
  }

  std::vector<std::atomic<uint32_t>> Hits;
  /// Slot I is written by exactly one callback (exactly-once above), read
  /// only after awaitAll()/drain.
  std::vector<Response> Responses;
  std::atomic<size_t> Delivered{0};
};

} // namespace

TEST(ServiceBasic, LifecycleExactlyOnceAndReferenceIdenticalResult) {
  ChainGrammar C;
  const Word W = C.word(12);
  ParseResult Reference = parse(C.G, C.S, W);
  ASSERT_EQ(Reference.kind(), ParseResult::Kind::Unique);

  ServiceOptions Opts;
  Opts.Workers = 2;
  Opts.PinWorkers = false;
  ParseService S(Opts);
  uint32_t Gid = S.addGrammar(C.G, C.S);
  EXPECT_FALSE(S.started());
  S.start();
  EXPECT_TRUE(S.started());
  EXPECT_EQ(S.workers(), 2u);

  Collector Got(1);
  Request R;
  R.Id = 0;
  R.GrammarId = Gid;
  R.Input = &W;
  EXPECT_EQ(S.submit(R, Got.callback()), ResponseStatus::Done);
  Got.awaitAll();
  S.drain();

  const Response &Resp = Got.Responses[0];
  EXPECT_EQ(Resp.Status, ResponseStatus::Done);
  ASSERT_TRUE(Resp.Result.has_value());
  ASSERT_EQ(Resp.Result->kind(), ParseResult::Kind::Unique);
  EXPECT_TRUE(treeEquals(Resp.Result->tree(), Reference.tree()));
  EXPECT_GE(Resp.LatencyMicros, Resp.QueueWaitMicros);
  EXPECT_EQ(S.report().Metrics.counter("service.done"), 1u);
  EXPECT_EQ(S.report().Metrics.counter("service.submitted"), 1u);
}

TEST(ServiceBasic, FrontDoorRefusalsAreInlineAndExactlyOnce) {
  ChainGrammar C;
  const Word W = C.word(3);

  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.PinWorkers = false;
  ParseService S(Opts);
  uint32_t Gid = S.addGrammar(C.G, C.S);

  // Before start(): refused inline, not crashed, not queued.
  Collector Got(4);
  Request R;
  R.Id = 0;
  R.GrammarId = Gid;
  R.Input = &W;
  EXPECT_EQ(S.submit(R, Got.callback()), ResponseStatus::Rejected);
  EXPECT_EQ(Got.Responses[0].Status, ResponseStatus::Rejected);
  EXPECT_STREQ(Got.Responses[0].Refusal, "not_accepting");

  S.start();

  // Unknown grammar and null input: invalid_request, delivered inline.
  R.Id = 1;
  R.GrammarId = 7;
  EXPECT_EQ(S.submit(R, Got.callback()), ResponseStatus::Rejected);
  EXPECT_STREQ(Got.Responses[1].Refusal, "invalid_request");
  R.Id = 2;
  R.GrammarId = Gid;
  R.Input = nullptr;
  EXPECT_EQ(S.submit(R, Got.callback()), ResponseStatus::Rejected);
  EXPECT_STREQ(Got.Responses[2].Refusal, "invalid_request");

  S.drain();

  // After drain: the door is closed for good.
  R.Id = 3;
  R.Input = &W;
  EXPECT_EQ(S.submit(R, Got.callback()), ResponseStatus::Rejected);
  EXPECT_STREQ(Got.Responses[3].Refusal, "not_accepting");
  EXPECT_EQ(Got.delivered(), 4u);
}

TEST(ServiceBasic, MultiGrammarRoutingKeepsResultsAndWarmsBothCaches) {
  ChainGrammar C;
  ParenGrammar P;
  std::vector<Word> ChainWords, ParenWords;
  for (size_t I = 0; I < 20; ++I) {
    ChainWords.push_back(C.word(2 + I % 7));
    ParenWords.push_back(P.word(1 + I % 5));
  }
  ParseResult ChainRef = parse(C.G, C.S, ChainWords[0]);
  ParseResult ParenRef = parse(P.G, P.P, ParenWords[0]);

  ServiceOptions Opts;
  Opts.Workers = 4;
  Opts.PinWorkers = false;
  Opts.PublishInterval = 4;
  ParseService S(Opts);
  uint32_t ChainId = S.addGrammar(C.G, C.S);
  uint32_t ParenId = S.addGrammar(P.G, P.P);
  S.start();

  // Ids: even = chain word I/2, odd = paren word I/2.
  Collector Got(40);
  for (uint64_t I = 0; I < 40; ++I) {
    Request R;
    R.Id = I;
    R.GrammarId = (I % 2 == 0) ? ChainId : ParenId;
    R.Input = (I % 2 == 0) ? &ChainWords[I / 2] : &ParenWords[I / 2];
    ASSERT_EQ(S.submit(R, Got.callback()), ResponseStatus::Done);
  }
  Got.awaitAll();
  S.drain();

  for (uint64_t I = 0; I < 40; ++I) {
    const Response &Resp = Got.Responses[I];
    ASSERT_EQ(Resp.Status, ResponseStatus::Done) << "request " << I;
    ASSERT_TRUE(Resp.Result.has_value());
    EXPECT_EQ(Resp.Result->kind(), ParseResult::Kind::Unique);
    EXPECT_EQ(Resp.GrammarId, (I % 2 == 0) ? ChainId : ParenId);
  }
  // Results are per-grammar correct, not just accepted: spot-check the
  // first word of each against its single-threaded reference.
  EXPECT_TRUE(treeEquals(Got.Responses[0].Result->tree(), ChainRef.tree()));
  EXPECT_TRUE(treeEquals(Got.Responses[1].Result->tree(), ParenRef.tree()));
  // Both grammars' shared caches were warmed (workers publish on the way
  // out even when the publish interval never elapsed).
  EXPECT_GT(S.sharedCacheStates(ChainId), 0u);
  EXPECT_GT(S.sharedCacheStates(ParenId), 0u);
  EXPECT_EQ(S.report().Metrics.counter("service.done"), 40u);
}

TEST(ServiceBasic, DeadlinePropagatesIntoBudgetAndExpiredIsRefused) {
  ChainGrammar C;
  const Word Short = C.word(4);
  const Word Long = C.word(300000);

  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.PinWorkers = false;
  Opts.AdmitByDeadline = false; // this test is about in-parse propagation
  ParseService S(Opts);
  uint32_t Gid = S.addGrammar(C.G, C.S);
  S.start();

  Collector Got(2);
  // A deadline already in the past is refused at the front door, inline.
  Request Expired;
  Expired.Id = 0;
  Expired.GrammarId = Gid;
  Expired.Input = &Short;
  Expired.Deadline = Clock::now() - std::chrono::milliseconds(5);
  EXPECT_EQ(S.submit(Expired, Got.callback()), ResponseStatus::Expired);
  EXPECT_EQ(Got.Responses[0].Status, ResponseStatus::Expired);

  // A live but tight deadline becomes the parse's wall budget: the long
  // word cannot finish in 300us, so the admitted request comes back as a
  // structured BudgetExceeded{Deadline} — or Expired if the queue wait
  // alone ate the deadline (a scheduler artifact, equally structured).
  Request Tight;
  Tight.Id = 1;
  Tight.GrammarId = Gid;
  Tight.Input = &Long;
  Tight.Deadline = Clock::now() + std::chrono::microseconds(300);
  ResponseStatus St = S.submit(Tight, Got.callback());
  ASSERT_TRUE(St == ResponseStatus::Done || St == ResponseStatus::Expired);
  Got.awaitAll();
  S.drain();

  const Response &Resp = Got.Responses[1];
  if (Resp.Status == ResponseStatus::Done) {
    ASSERT_TRUE(Resp.Result.has_value());
    ASSERT_EQ(Resp.Result->kind(), ParseResult::Kind::BudgetExceeded);
    EXPECT_EQ(Resp.Result->budget().Reason, robust::BudgetReason::Deadline);
    EXPECT_LT(Resp.Result->budget().TokensConsumed, Long.size());
  } else {
    EXPECT_EQ(Resp.Status, ResponseStatus::Expired);
  }
}

TEST(ServiceBasic, DeadlineAdmissionRejectsUnmeetableRequests) {
  ChainGrammar C;
  const Word Warm = C.word(2000);
  const Word Huge = C.word(500000);

  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.PinWorkers = false;
  ParseService S(Opts);
  uint32_t Gid = S.addGrammar(C.G, C.S);
  S.start();

  // Warm the cost model: deadline admission is advisory-open while cold.
  Collector WarmGot(4);
  for (uint64_t I = 0; I < 4; ++I) {
    Request R;
    R.Id = I;
    R.GrammarId = Gid;
    R.Input = &Warm;
    ASSERT_EQ(S.submit(R, WarmGot.callback()), ResponseStatus::Done);
  }
  WarmGot.awaitAll();

  // 500k tokens against a 2ms deadline: the warmed estimate (tens of ms —
  // even an implausible 5ns/token says >2ms) is unmeetable, so the
  // request must not consume a queue slot. The 2ms headroom keeps the
  // already-expired path out of the picture.
  Collector Got(1);
  Request R;
  R.Id = 0;
  R.GrammarId = Gid;
  R.Input = &Huge;
  R.Deadline = Clock::now() + std::chrono::milliseconds(2);
  EXPECT_EQ(S.submit(R, Got.callback()), ResponseStatus::Rejected);
  EXPECT_EQ(Got.Responses[0].Status, ResponseStatus::Rejected);
  EXPECT_STREQ(Got.Responses[0].Refusal, "deadline_unmeetable");
  S.drain();
  EXPECT_EQ(S.report().Metrics.counter("service.rejected.deadline"), 1u);
}

TEST(ServiceBasic, SheddingDropsByPriorityClassUnderBacklog) {
  ChainGrammar C;
  const Word W = C.word(4);

  // One worker that stalls 200ms on its first request, so the queue backs
  // up deterministically while we probe the shedding tiers.
  ServiceChaosPlan Chaos;
  Chaos.Stalls.push_back({/*Worker=*/0, /*AtRequest=*/1,
                          /*StallMicros=*/200000});

  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.PinWorkers = false;
  Opts.QueueCapacity = 8;
  Opts.ShedBestEffortAt = 0.25;
  Opts.ShedBatchAt = 0.5;
  Opts.Chaos = &Chaos;
  ParseService S(Opts);
  uint32_t Gid = S.addGrammar(C.G, C.S);
  S.start();

  Collector Got(8);
  auto Submit = [&](uint64_t Id, Priority P) {
    Request R;
    R.Id = Id;
    R.GrammarId = Gid;
    R.Input = &W;
    R.Class = P;
    return S.submit(R, Got.callback());
  };

  // Trigger the stall, then give the worker a moment to take the request.
  ASSERT_EQ(Submit(0, Priority::Interactive), ResponseStatus::Done);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Backlog up to depth 5 (the stalled request still counts until the
  // worker's dequeue accounting runs after the stall): fullness 5/8.
  for (uint64_t I = 1; I <= 4; ++I)
    ASSERT_EQ(Submit(I, Priority::Interactive), ResponseStatus::Done);

  // 0.625 fullness: over both thresholds — Batch and BestEffort shed,
  // Interactive still admitted (sheds never, queue has room).
  EXPECT_EQ(Submit(5, Priority::BestEffort), ResponseStatus::Shed);
  EXPECT_STREQ(Got.Responses[5].Refusal, "overload");
  EXPECT_EQ(Submit(6, Priority::Batch), ResponseStatus::Shed);
  EXPECT_EQ(Submit(7, Priority::Interactive), ResponseStatus::Done);

  Got.awaitAll();
  S.drain();
  // Every admitted request was served after the stall; shed ones stayed
  // shed (exactly one response each, counted by the collector).
  for (uint64_t Id : {0u, 1u, 2u, 3u, 4u, 7u})
    EXPECT_EQ(Got.Responses[Id].Status, ResponseStatus::Done) << Id;
  EXPECT_EQ(S.report().Metrics.counter("service.shed"), 2u);
  EXPECT_EQ(S.report().Metrics.counter("service.chaos.stalls"), 1u);
}

TEST(ServiceBasic, BreakerTripsRefusesAndReopensOnFailedProbe) {
  ChainGrammar C;
  const Word W = C.word(6);

  // Persistent TreeAlloc faults: every attempt on every backend errors, so
  // retries and the AVL downgrade cannot save the grammar — exactly the
  // "serving substrate is broken" pattern the breaker exists for.
  robust::FaultPlan Faults =
      robust::FaultPlan::at(robust::FaultSite::TreeAlloc, 1, UINT32_MAX);

  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.PinWorkers = false;
  Opts.BreakerThreshold = 3;
  Opts.BreakerCooldownMicros = 200000; // 200ms
  Opts.Retry.MaxRetries = 0;
  Opts.Faults = &Faults;
  ParseService S(Opts);
  uint32_t Gid = S.addGrammar(C.G, C.S);
  S.start();

  Collector Got(6);
  auto Submit = [&](uint64_t Id) {
    Request R;
    R.Id = Id;
    R.GrammarId = Gid;
    R.Input = &W;
    return S.submit(R, Got.callback());
  };
  auto Await = [&](size_t N) {
    while (Got.delivered() < N)
      std::this_thread::yield();
  };

  // Three consecutive final Errors trip the breaker.
  for (uint64_t I = 0; I < 3; ++I)
    ASSERT_EQ(Submit(I), ResponseStatus::Done);
  Await(3);
  for (uint64_t I = 0; I < 3; ++I) {
    ASSERT_TRUE(Got.Responses[I].Result.has_value());
    EXPECT_EQ(Got.Responses[I].Result->kind(), ParseResult::Kind::Error);
  }
  EXPECT_EQ(S.breaker(Gid).state(), CircuitBreaker::State::Open);
  EXPECT_EQ(S.breaker(Gid).trips(), 1u);

  // Open: refused without parsing, inline.
  EXPECT_EQ(Submit(3), ResponseStatus::BreakerOpen);
  EXPECT_EQ(Got.Responses[3].Status, ResponseStatus::BreakerOpen);

  // After the cooldown one probe is admitted; it fails (the fault is
  // persistent), so the breaker re-opens with a fresh cooldown.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  ASSERT_EQ(Submit(4), ResponseStatus::Done); // the probe, queued
  Await(5);
  EXPECT_EQ(Got.Responses[4].Result->kind(), ParseResult::Kind::Error);
  EXPECT_EQ(S.breaker(Gid).state(), CircuitBreaker::State::Open);
  EXPECT_EQ(Submit(5), ResponseStatus::BreakerOpen);

  S.drain();
  EXPECT_EQ(S.report().Metrics.counter("service.rejected.breaker"), 2u);
}

TEST(ServiceBasic, BreakerClosesOnSuccessfulProbe) {
  // The service cannot un-inject a persistent fault mid-run, so the
  // close-on-probe-success transition is driven on the breaker directly.
  CircuitBreaker B(/*Threshold=*/2, /*CooldownMicros=*/1000);
  Clock::time_point T0 = Clock::now();
  bool Probe = false;

  EXPECT_TRUE(B.admit(T0, Probe));
  B.onResult(/*Failure=*/true, false, T0);
  B.onResult(/*Failure=*/true, false, T0);
  EXPECT_EQ(B.state(), CircuitBreaker::State::Open);

  // Inside the cooldown: refused. After it: one probe, and only one.
  EXPECT_FALSE(B.admit(T0 + std::chrono::microseconds(500), Probe));
  Clock::time_point T1 = T0 + std::chrono::microseconds(1500);
  EXPECT_TRUE(B.admit(T1, Probe));
  EXPECT_TRUE(Probe);
  bool Probe2 = false;
  EXPECT_FALSE(B.admit(T1, Probe2)); // one probe at a time

  B.onResult(/*Failure=*/false, /*IsProbe=*/true, T1);
  EXPECT_EQ(B.state(), CircuitBreaker::State::Closed);
  EXPECT_TRUE(B.admit(T1, Probe2));
  EXPECT_FALSE(Probe2);
  EXPECT_EQ(B.trips(), 1u);
}

TEST(ServiceBasic, DrainRacingSubmittersLosesNoResponse) {
  ChainGrammar C;
  const Word W = C.word(5);
  constexpr size_t PerThread = 50;
  constexpr size_t NumThreads = 4;

  ServiceOptions Opts;
  Opts.Workers = 2;
  Opts.PinWorkers = false;
  ParseService S(Opts);
  uint32_t Gid = S.addGrammar(C.G, C.S);
  S.start();

  Collector Got(PerThread * NumThreads);
  std::vector<std::thread> Submitters;
  for (size_t T = 0; T < NumThreads; ++T)
    Submitters.emplace_back([&, T] {
      for (size_t I = 0; I < PerThread; ++I) {
        Request R;
        R.Id = T * PerThread + I;
        R.GrammarId = Gid;
        R.Input = &W;
        S.submit(R, Got.callback());
      }
    });
  // Drain races the submitters: some requests land and are served, the
  // rest are refused inline — but every single one gets its one response.
  std::this_thread::sleep_for(std::chrono::microseconds(500));
  S.drain();
  for (std::thread &T : Submitters)
    T.join();

  EXPECT_EQ(Got.delivered(), PerThread * NumThreads);
  size_t Done = 0, Refused = 0;
  for (const Response &R : Got.Responses) {
    if (R.Status == ResponseStatus::Done) {
      ++Done;
      ASSERT_TRUE(R.Result.has_value());
      EXPECT_EQ(R.Result->kind(), ParseResult::Kind::Unique);
    } else {
      ++Refused;
      EXPECT_EQ(R.Status, ResponseStatus::Rejected);
      EXPECT_STREQ(R.Refusal, "not_accepting");
    }
  }
  EXPECT_EQ(Done + Refused, PerThread * NumThreads);
  EXPECT_EQ(S.report().Metrics.counter("service.done"), Done);
}

TEST(ServiceBasic, CostModelEstimateSaturatesInsteadOfWrapping) {
  // A mid-wrap backlog reading (~2^64 tokens) fed into the cost model
  // must estimate as "infeasible", never overflow back to a small number
  // that sneaks past deadline admission.
  CostModel M;
  M.observe(1000, 1000000); // 1000 ns/token
  uint64_t Sane = M.estimateMicros(1u << 20);
  EXPECT_GT(Sane, 0u);
  uint64_t Saturated = M.estimateMicros(UINT64_MAX - 5);
  EXPECT_EQ(Saturated, UINT64_MAX >> (CostModel::FxShift + 10));
  EXPECT_GT(Saturated, Sane);
}

TEST(ServiceBasic, AdmissionBacklogStaysCoherentUnderConcurrentDrains) {
  // Regression for the stale-backlog admission bug. The old submit path
  // charged WorkerLoad only *after* a successful push, so a fast worker's
  // dequeue decrement could land before the producer's increment; a
  // concurrent submitter's deadline-feasibility read then saw
  // BacklogTokens wrapped to ~2^64, the completion estimate exploded, and
  // a trivially meetable request was refused "deadline_unmeetable". The
  // fixed protocol (charge before push with rollback, acquire/release
  // counters, and feasibility reusing the routing snapshot) makes the
  // wrapped observation impossible. This test hammers that exact
  // interleaving: one worker constantly dequeuing shallow churn while
  // another thread submits generous-deadline requests that must all be
  // admitted.
  ChainGrammar C;
  const Word Small = C.word(4);

  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.PinWorkers = false;
  Opts.QueueCapacity = 4096;
  ParseService S(Opts);
  uint32_t Gid = S.addGrammar(C.G, C.S);
  S.start();

  // Warm the cost model so deadline admission actually estimates (a cold
  // model admits everything and would mask the bug).
  {
    std::atomic<size_t> Warmed{0};
    for (size_t I = 0; I < 32; ++I) {
      Request R;
      R.Id = I;
      R.GrammarId = Gid;
      R.Input = &Small;
      S.submit(R, [&](Response &&) { Warmed.fetch_add(1); });
    }
    while (Warmed.load() < 32)
      std::this_thread::yield();
  }

  // Churn: keep the worker popping a shallow queue — the decrement side
  // of the race fires constantly, right as probes read the backlog.
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> ChurnInFlight{0};
  std::thread Churn([&] {
    while (!Stop.load(std::memory_order_acquire)) {
      if (ChurnInFlight.load(std::memory_order_acquire) >= 4) {
        std::this_thread::yield();
        continue;
      }
      Request R;
      R.Id = 0;
      R.GrammarId = Gid;
      R.Input = &Small;
      ChurnInFlight.fetch_add(1, std::memory_order_acq_rel);
      S.submit(R, [&](Response &&) {
        ChurnInFlight.fetch_sub(1, std::memory_order_acq_rel);
      });
    }
  });

  // Probes: small requests with 30-second deadlines. Any rejection is
  // the regression (the real backlog never exceeds a handful of tiny
  // words, so the honest estimate is microseconds).
  constexpr size_t Probes = 500;
  std::atomic<size_t> ProbesDelivered{0};
  std::atomic<size_t> DeadlineRejects{0};
  for (size_t I = 0; I < Probes; ++I) {
    Request R;
    R.Id = 1 + I;
    R.GrammarId = Gid;
    R.Input = &Small;
    R.Class = Priority::Interactive;
    R.Deadline = Clock::now() + std::chrono::seconds(30);
    S.submit(R, [&](Response &&Resp) {
      if (Resp.Status == ResponseStatus::Rejected &&
          std::string_view(Resp.Refusal) == "deadline_unmeetable")
        DeadlineRejects.fetch_add(1);
      ProbesDelivered.fetch_add(1);
    });
  }
  while (ProbesDelivered.load() < Probes)
    std::this_thread::yield();
  Stop.store(true, std::memory_order_release);
  Churn.join();
  S.drain();

  EXPECT_EQ(DeadlineRejects.load(), 0u)
      << "stale-backlog read spuriously rejected a meetable deadline";
  EXPECT_EQ(S.report().Metrics.counter("service.rejected.deadline"), 0u);
}

TEST(ServiceBasic, WorkerServesItsChannelInArrivalOrder) {
  // One worker stalls on its first request (A) while B and C queue behind
  // it. C carries a nearer deadline than B, but the channel is strict
  // FIFO: deadlines decide admission and the parse budget, never the
  // service order.
  ChainGrammar C;
  const Word W = C.word(4);
  ServiceChaosPlan Chaos;
  Chaos.Stalls.push_back({/*Worker=*/0, /*AtRequest=*/1,
                          /*StallMicros=*/100000});

  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.PinWorkers = false;
  Opts.Chaos = &Chaos;
  ParseService S(Opts);
  uint32_t Gid = S.addGrammar(C.G, C.S);
  S.start();

  std::mutex OrderLock;
  std::vector<uint64_t> Order;
  Collector Got(3);
  ResponseCallback Record = [&](Response &&Resp) {
    {
      std::lock_guard<std::mutex> Lock(OrderLock);
      Order.push_back(Resp.Id);
    }
    Got.callback()(std::move(Resp));
  };
  auto Submit = [&](uint64_t Id, std::optional<Clock::time_point> Deadline) {
    Request R;
    R.Id = Id;
    R.GrammarId = Gid;
    R.Input = &W;
    R.Deadline = Deadline;
    return S.submit(R, Record);
  };

  // A, with no deadline, trips the stall; the worker takes it first.
  ASSERT_EQ(Submit(0, std::nullopt), ResponseStatus::Done);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // B far, then C near: both generous against a 100ms stall.
  ASSERT_EQ(Submit(1, Clock::now() + std::chrono::seconds(60)),
            ResponseStatus::Done);
  ASSERT_EQ(Submit(2, Clock::now() + std::chrono::seconds(30)),
            ResponseStatus::Done);
  Got.awaitAll();
  S.drain();

  EXPECT_EQ(Order, (std::vector<uint64_t>{0, 1, 2}));
  for (uint64_t Id : {0u, 1u, 2u})
    EXPECT_EQ(Got.Responses[Id].Status, ResponseStatus::Done) << Id;
}

// Scheduler equivalence: how requests are spread over workers — the
// worker count, which worker is a grammar's home, how warm its cache is —
// must never show in what a request gets back.

TEST(SchedulerEquivalence, SerialLoadMakesIdenticalAdmissionDecisions) {
  // Serial load: exactly one request outstanding at a time, so routing,
  // feasibility, and expiry see deterministic state and every decision
  // is known in advance — identical on one worker and on four. The script
  // walks the admission categories: no deadline (accepted), already
  // expired (Expired at the front door), generously feasible (accepted),
  // and — after the cost model is warm — hopeless (deadline_unmeetable).
  ChainGrammar C;
  std::vector<Word> Words;
  for (size_t I = 0; I < 12; ++I)
    Words.push_back(C.word(4 + 16 * I));
  const Word Huge = C.word(500000);

  struct Decision {
    ResponseStatus Status = ResponseStatus::Rejected;
    std::string Refusal;
    int ResultKind = -1; // ParseResult::Kind when Done, -1 otherwise
  };
  const Decision Parsed{ResponseStatus::Done, "",
                        static_cast<int>(ParseResult::Kind::Unique)};
  const Decision Expired{ResponseStatus::Expired, "", -1};
  const Decision Unmeetable{ResponseStatus::Rejected, "deadline_unmeetable",
                            -1};
  const Decision Round[12] = {Parsed, Expired, Parsed, Parsed,
                              Expired, Parsed, Parsed, Expired,
                              Parsed, Parsed, Expired, Parsed};
  std::vector<Decision> Expected;
  for (size_t Rep = 0; Rep < 3; ++Rep)
    Expected.insert(Expected.end(), std::begin(Round), std::end(Round));
  Expected.push_back(Unmeetable);

  for (unsigned Workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    ServiceOptions Opts;
    Opts.Workers = Workers;
    Opts.PinWorkers = false;
    ParseService S(Opts);
    uint32_t Gid = S.addGrammar(C.G, C.S);
    S.start();

    std::vector<Decision> Decisions;
    auto await = [&](Request R) {
      std::atomic<bool> Done{false};
      Decision D;
      S.submit(std::move(R), [&](Response &&Resp) {
        D.Status = Resp.Status;
        D.Refusal = Resp.Refusal;
        if (Resp.Result)
          D.ResultKind = static_cast<int>(Resp.Result->kind());
        Done.store(true, std::memory_order_release);
      });
      while (!Done.load(std::memory_order_acquire))
        std::this_thread::yield();
      Decisions.push_back(std::move(D));
    };

    // Three rounds over the words double as the cost-model trainer (24
    // clean parses before the hopeless request).
    for (size_t Round = 0; Round < 3; ++Round)
      for (size_t I = 0; I < Words.size(); ++I) {
        Request R;
        R.Id = Round * Words.size() + I;
        R.GrammarId = Gid;
        R.Input = &Words[I];
        switch (I % 3) {
        case 0: // no deadline
          break;
        case 1: // already expired when submitted
          R.Deadline = Clock::now() - std::chrono::milliseconds(1);
          break;
        case 2: // generous: estimates are microseconds, this is a minute
          R.Deadline = Clock::now() + std::chrono::seconds(60);
          break;
        }
        await(std::move(R));
      }

    // The hopeless request: half a million tokens against two
    // milliseconds, with a warm model.
    Request R;
    R.Id = 1000;
    R.GrammarId = Gid;
    R.Input = &Huge;
    R.Deadline = Clock::now() + std::chrono::milliseconds(2);
    await(std::move(R));
    S.drain();

    ASSERT_EQ(Decisions.size(), Expected.size());
    for (size_t I = 0; I < Expected.size(); ++I) {
      EXPECT_EQ(Decisions[I].Status, Expected[I].Status) << "request " << I;
      EXPECT_EQ(Decisions[I].Refusal, Expected[I].Refusal) << "request " << I;
      EXPECT_EQ(Decisions[I].ResultKind, Expected[I].ResultKind)
          << "request " << I;
    }
    EXPECT_EQ(S.report().Metrics.counter("service.done"), 24u);
    // 12 front-door expiries plus the one unmeetable rejection.
    EXPECT_EQ(S.report().Metrics.counter("service.rejected.deadline"), 13u);
  }
}

TEST(SchedulerEquivalence, ConcurrentLoadProducesBitIdenticalTrees) {
  // Fire the whole corpus at once on four workers: routing may spread the
  // words across home workers with differently warmed caches, but every
  // completed parse must be bit-identical to the single-threaded
  // reference — warmth and placement can never leak into results.
  ChainGrammar C;
  std::vector<Word> Words;
  std::vector<ParseResult> Refs;
  for (size_t I = 0; I < 48; ++I) {
    Words.push_back(C.word(2 + 7 * I, /*Accept=*/I % 9 != 8));
    Refs.push_back(parse(C.G, C.S, Words.back()));
  }

  ServiceOptions Opts;
  Opts.Workers = 4;
  Opts.PinWorkers = false;
  Opts.QueueCapacity = 2 * Words.size();
  ParseService S(Opts);
  uint32_t Gid = S.addGrammar(C.G, C.S);
  S.start();

  const size_t N = Words.size();
  Collector Got(N);
  for (size_t I = 0; I < N; ++I) {
    Request R;
    R.Id = I;
    R.GrammarId = Gid;
    R.Input = &Words[I];
    ASSERT_EQ(S.submit(R, Got.callback()), ResponseStatus::Done);
  }
  S.drain();

  ASSERT_EQ(Got.delivered(), N);
  for (size_t I = 0; I < N; ++I) {
    const Response &Resp = Got.Responses[I];
    ASSERT_EQ(Resp.Status, ResponseStatus::Done) << "request " << I;
    ASSERT_TRUE(Resp.Result.has_value());
    ASSERT_EQ(Resp.Result->kind(), Refs[I].kind()) << "request " << I;
    if (Refs[I].accepted()) {
      EXPECT_TRUE(treeEquals(Resp.Result->tree(), Refs[I].tree()))
          << "request " << I;
    }
  }
}
