//===- bench/bench_service.cpp - Parse-service runtime benchmark -------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Benchmarks the parse-service runtime (src/service/) on the Python
/// workload, the heaviest of the four paper grammars:
///
///  1. Worker scaling: the same closed-loop corpus drain (BatchParser,
///     which runs on the service runtime) with N workers against one
///     worker. The ratio of interleaved minimum times is self-relative,
///     so it needs no second engine as a baseline; it is gated by
///     scripts/check_bench_regression.py only where the machine has the
///     parallel capacity to show it.
///
///  2. Open-loop latency: a paced generator submits requests at a fixed
///     fraction of the measured saturation rate — arrivals do not wait
///     for completions, so queueing delay is real, not self-throttled.
///     Reported: p50/p99/p999 latency from exact sorted per-request
///     samples (the merged service histogram is only a cross-check), at
///     50% and 90% of saturation.
///
///  3. Skewed grammar mix: a cost-skewed request mix over {python, json,
///     dot, verilog} — python is ~40% of requests but carries most of the
///     token-cost, so its home worker runs far hotter than the others.
///     One paced open loop at 50% of the mix's saturation; reported:
///     p50/p99 and p99_over_p50, the machine-independent tail ratio the
///     committed-baseline gate tracks (armed only when the machine has
///     >= 4 hardware threads: on fewer cores the workers time-share and
///     the scenario is degenerate).
///
///  4. Deadline storm: tight mixed deadlines at 80% load;
///     deadline_met_rate is recorded (never gated — met rates are
///     machine-dependent).
///
/// Machine-independent ratios (workers_speedup, p99_over_p50) carry the
/// regression gates; absolute tok/s and microseconds are recorded for the
/// EXPERIMENTS.md tables but never gated.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "service/Service.h"
#include "workload/BatchParser.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace costar;
using namespace costar::bench;

namespace {

unsigned benchWorkers() {
  unsigned HW = std::thread::hardware_concurrency();
  return std::max(2u, std::min(HW, 8u));
}

/// Exact percentile from raw samples (nearest-rank on a sorted copy).
uint64_t percentile(std::vector<uint64_t> Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  std::sort(Sorted.begin(), Sorted.end());
  size_t Rank = static_cast<size_t>(Q * double(Sorted.size()));
  if (Rank >= Sorted.size())
    Rank = Sorted.size() - 1;
  return Sorted[Rank];
}

struct OpenLoopResult {
  std::vector<uint64_t> LatenciesUs; ///< Done responses only
  size_t Done = 0;
  size_t Refused = 0; ///< all front-door refusals + expiries
};

/// Runs the open-loop generator: \p NumRequests arrivals at
/// \p RatePerSec, round-robin over the corpus, against a fresh service.
/// Arrivals are paced by the clock, never by completions.
OpenLoopResult runOpenLoop(const BenchCorpus &C, const GrammarAnalysis &A,
                           const PredictionTables &T, double RatePerSec,
                           size_t NumRequests) {
  service::ServiceOptions Opts;
  Opts.Workers = benchWorkers();
  Opts.QueueCapacity = 4096;
  Opts.CollectMetrics = false;
  service::ParseService S(Opts);
  uint32_t Gid = S.addGrammar(C.L.G, C.L.Start, &A, &T);
  S.start();

  // Warmup: every corpus file through the service once, closed loop, so
  // the measured window sees warm per-worker SLL caches and a seeded
  // cost model instead of a cold-start backlog.
  {
    std::atomic<size_t> Warmed{0};
    for (size_t I = 0; I < C.TokenStreams.size(); ++I) {
      service::Request R;
      R.Id = I;
      R.GrammarId = Gid;
      R.Input = &C.TokenStreams[I];
      S.submit(R, [&](service::Response &&) {
        Warmed.fetch_add(1, std::memory_order_relaxed);
      });
      while (Warmed.load(std::memory_order_relaxed) <= I)
        std::this_thread::yield();
    }
  }

  std::vector<uint8_t> IsDone(NumRequests, 0);
  std::vector<uint64_t> Latency(NumRequests, 0);
  std::atomic<size_t> Delivered{0};

  using Clock = service::Clock;
  const auto Interval =
      std::chrono::nanoseconds(static_cast<uint64_t>(1e9 / RatePerSec));
  const Clock::time_point Start = Clock::now();
  for (size_t I = 0; I < NumRequests; ++I) {
    // Open loop: wait for the I-th arrival time, not for any response.
    // Sleep to within 100us of the due time, then spin the last stretch:
    // a pure spinner would steal a core from the workers on small
    // machines, pure sleeping would distort sub-ms pacing.
    Clock::time_point Due = Start + Interval * I;
    if (Due - Clock::now() > std::chrono::microseconds(200))
      std::this_thread::sleep_until(Due - std::chrono::microseconds(100));
    while (Clock::now() < Due)
      ;
    service::Request R;
    R.Id = I;
    R.GrammarId = Gid;
    R.Input = &C.TokenStreams[I % C.TokenStreams.size()];
    S.submit(R, [&, I](service::Response &&Resp) {
      if (Resp.Status == service::ResponseStatus::Done) {
        IsDone[I] = 1;
        Latency[I] = Resp.LatencyMicros;
      }
      Delivered.fetch_add(1, std::memory_order_relaxed);
    });
  }
  S.drain();

  OpenLoopResult Out;
  for (size_t I = 0; I < NumRequests; ++I) {
    if (IsDone[I]) {
      ++Out.Done;
      Out.LatenciesUs.push_back(Latency[I]);
    } else {
      ++Out.Refused;
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Skewed grammar mix + deadline storm
//===----------------------------------------------------------------------===//

/// The cost-skewed request mix: four grammars, python ~40% of requests
/// but carrying most of the token-cost (its files are larger and its
/// grammar is the slowest per token), the cheap grammars round-robined
/// over the rest. The schedule is a fixed deterministic interleave, so
/// every run replays exactly the same arrivals.
struct SkewedMix {
  std::vector<BenchCorpus> Corpora;          ///< python, json, dot, verilog
  std::vector<size_t> ReqGrammar;            ///< request -> corpus index
  std::vector<const Word *> ReqWord;         ///< request -> token stream
  uint64_t PythonTokens = 0, TotalTokens = 0;

  explicit SkewedMix(size_t NumRequests) {
    Corpora.push_back(makeCorpus(lang::LangId::Python, 8, 500, 6000));
    Corpora.push_back(makeCorpus(lang::LangId::Json, 8, 100, 600));
    Corpora.push_back(makeCorpus(lang::LangId::Dot, 8, 100, 600));
    Corpora.push_back(makeCorpus(lang::LangId::Verilog, 8, 100, 600));
    // Pattern of five: python, cheap, python, cheap, cheap = 40% python
    // by count; the cheap slots cycle json -> dot -> verilog.
    size_t Cheap = 0;
    std::vector<size_t> Cursor(Corpora.size(), 0);
    for (size_t I = 0; I < NumRequests; ++I) {
      size_t G;
      if (I % 5 == 0 || I % 5 == 2)
        G = 0;
      else
        G = 1 + Cheap++ % 3;
      const BenchCorpus &C = Corpora[G];
      const Word &W = C.TokenStreams[Cursor[G]++ % C.TokenStreams.size()];
      ReqGrammar.push_back(G);
      ReqWord.push_back(&W);
      TotalTokens += W.size();
      if (G == 0)
        PythonTokens += W.size();
    }
  }
};

/// One skewed-mix (or storm) run: a fresh four-grammar service, warmed
/// per grammar, then the fixed schedule replayed as a paced open loop.
/// \p DeadlineMicrosFor maps a request index to a deadline offset in
/// microseconds (0 = no deadline) — the skewed scenario passes all-zero,
/// the storm passes its deadline pattern.
template <typename DeadlineFn>
OpenLoopResult runSkewed(const SkewedMix &Mix, double RatePerSec,
                         DeadlineFn DeadlineMicrosFor) {
  service::ServiceOptions Opts;
  Opts.Workers = benchWorkers();
  Opts.QueueCapacity = 8192;
  Opts.CollectMetrics = false;
  service::ParseService S(Opts);
  std::vector<uint32_t> Gids;
  for (const BenchCorpus &C : Mix.Corpora)
    Gids.push_back(S.addGrammar(C.L.G, C.L.Start));
  S.start();

  // Warmup: every file of every corpus once, closed loop, so each home
  // worker's caches and every grammar's cost model are warm before the
  // measured window.
  {
    std::atomic<size_t> Warmed{0};
    size_t Sent = 0;
    for (size_t G = 0; G < Mix.Corpora.size(); ++G)
      for (const Word &W : Mix.Corpora[G].TokenStreams) {
        service::Request R;
        R.Id = Sent;
        R.GrammarId = Gids[G];
        R.Input = &W;
        S.submit(R, [&](service::Response &&) {
          Warmed.fetch_add(1, std::memory_order_relaxed);
        });
        ++Sent;
        while (Warmed.load(std::memory_order_relaxed) < Sent)
          std::this_thread::yield();
      }
  }

  const size_t N = Mix.ReqWord.size();
  std::vector<uint8_t> IsDone(N, 0);
  std::vector<uint64_t> Latency(N, 0);

  using Clock = service::Clock;
  const auto Interval =
      std::chrono::nanoseconds(static_cast<uint64_t>(1e9 / RatePerSec));
  const Clock::time_point Start = Clock::now();
  for (size_t I = 0; I < N; ++I) {
    Clock::time_point Due = Start + Interval * I;
    if (Due - Clock::now() > std::chrono::microseconds(200))
      std::this_thread::sleep_until(Due - std::chrono::microseconds(100));
    while (Clock::now() < Due)
      ;
    service::Request R;
    R.Id = I;
    R.GrammarId = Gids[Mix.ReqGrammar[I]];
    R.Input = Mix.ReqWord[I];
    uint64_t DeadlineUs = DeadlineMicrosFor(I);
    if (DeadlineUs > 0)
      R.Deadline = Clock::now() + std::chrono::microseconds(DeadlineUs);
    S.submit(std::move(R), [&, I](service::Response &&Resp) {
      if (Resp.Status == service::ResponseStatus::Done) {
        IsDone[I] = 1;
        Latency[I] = Resp.LatencyMicros;
      }
    });
  }
  S.drain();

  OpenLoopResult Out;
  for (size_t I = 0; I < N; ++I) {
    if (IsDone[I]) {
      ++Out.Done;
      Out.LatenciesUs.push_back(Latency[I]);
    } else {
      ++Out.Refused;
    }
  }
  return Out;
}

/// Closed-loop saturation of the skewed mix: submit everything, drain,
/// time it. The open-loop runs are paced at a fraction of this rate.
double skewedSaturationRate(const SkewedMix &Mix) {
  service::ServiceOptions Opts;
  Opts.Workers = benchWorkers();
  Opts.QueueCapacity = 8192;
  service::ParseService S(Opts);
  std::vector<uint32_t> Gids;
  for (const BenchCorpus &C : Mix.Corpora)
    Gids.push_back(S.addGrammar(C.L.G, C.L.Start));
  S.start();

  const size_t N = Mix.ReqWord.size();
  auto T0 = std::chrono::steady_clock::now();
  for (size_t I = 0; I < N; ++I) {
    service::Request R;
    R.Id = I;
    R.GrammarId = Gids[Mix.ReqGrammar[I]];
    R.Input = Mix.ReqWord[I];
    S.submit(std::move(R), [](service::Response &&) {});
  }
  S.drain();
  double Sec = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - T0)
                   .count();
  return Sec > 0 ? double(N) / Sec : 1.0;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseBenchArgs(Argc, Argv, "BENCH_service.json", 3);
  const unsigned Workers = benchWorkers();

  std::printf("== parse-service runtime: Python workload, %u workers ==\n",
              Workers);
  BenchCorpus C = makeTimingCorpus(lang::LangId::Python, 16);
  std::printf("corpus: %zu files, %llu tokens\n", C.TokenStreams.size(),
              static_cast<unsigned long long>(C.TotalTokens));

  workload::BatchParser BP(C.L.G, C.L.Start);
  const unsigned ParallelCapacity =
      std::min(std::thread::hardware_concurrency(), Workers);

  // 1. Worker scaling: one closed-loop corpus drain per sample, N workers
  //    and one worker interleaved so a slow phase of the machine lands on
  //    both sides. External load only ever adds time, so the ratio of
  //    minimum times is the steady estimator (as in bench_micro's lexer
  //    kernel); five samples a side did not steady it on 4 threads,
  //    eleven did (EXPERIMENTS.md). The N-worker median paces the open
  //    loops below, as a saturation rate they can sustain.
  auto Drain = [&](unsigned Threads) {
    workload::BatchOptions BO;
    BO.Threads = Threads;
    return stats::timeOnce([&] { (void)BP.parseAll(C.TokenStreams, BO); });
  };
  for (int I = 0; I < Opts.Warmup; ++I) {
    (void)Drain(Workers);
    (void)Drain(1);
  }
  std::vector<double> ManySec, OneSec;
  for (int R = 0; R < std::max(11, Opts.Reps); ++R) {
    ManySec.push_back(Drain(Workers));
    OneSec.push_back(Drain(1));
  }
  std::sort(ManySec.begin(), ManySec.end());
  std::sort(OneSec.begin(), OneSec.end());
  double ManyBest = ManySec.front(), OneBest = OneSec.front();
  double ServiceTokS = double(C.TotalTokens) / ManyBest;
  double OneTokS = double(C.TotalTokens) / OneBest;
  double Speedup = OneBest / ManyBest;
  std::printf("scaling: 1 worker %.0f tok/s, %u workers %.0f tok/s "
              "(%.3fx, parallel capacity %u)\n",
              OneTokS, Workers, ServiceTokS, Speedup, ParallelCapacity);

  // 2. Open-loop latency at 50%% and 90%% of saturation.
  GrammarAnalysis Analysis(C.L.G, C.L.Start);
  PredictionTables Tables(C.L.G, Analysis);
  double AvgTokens = double(C.TotalTokens) / double(C.TokenStreams.size());
  double SatTokS = double(C.TotalTokens) / ManySec[ManySec.size() / 2];
  double SatRate = SatTokS / AvgTokens; // requests/sec at saturation

  std::vector<BenchRecord> Records;
  Records.push_back({"service/python", "one_worker_tok_per_sec", OneTokS,
                     "tok/s"});
  Records.push_back({"service/python", "service_tok_per_sec", ServiceTokS,
                     "tok/s"});
  Records.push_back({"service/python", "workers_speedup", Speedup, "x"});
  Records.push_back({"service/python", "parallel_capacity",
                     double(ParallelCapacity), "threads"});

  for (double Load : {0.5, 0.9}) {
    // Bound each load level to ~20 scaled seconds of offered traffic so
    // slow machines do not turn the latency sweep into a multi-minute
    // run; the floor keeps enough samples for a meaningful p99.
    double Rate = SatRate * Load;
    size_t NumRequests = std::max<size_t>(
        150, std::min<size_t>(4000,
                              static_cast<size_t>(Rate * 20 * benchScale())));
    OpenLoopResult R = runOpenLoop(C, Analysis, Tables, Rate, NumRequests);
    double P50 = double(percentile(R.LatenciesUs, 0.50));
    double P99 = double(percentile(R.LatenciesUs, 0.99));
    double P999 = double(percentile(R.LatenciesUs, 0.999));
    std::string Name =
        "service/python/load" + std::to_string(int(Load * 100));
    std::printf("open loop %2.0f%%: %zu done, %zu refused, p50 %.0fus, "
                "p99 %.0fus, p999 %.0fus\n",
                Load * 100, R.Done, R.Refused, P50, P99, P999);
    Records.push_back({Name, "p50_us", P50, "us"});
    Records.push_back({Name, "p99_us", P99, "us"});
    Records.push_back({Name, "p999_us", P999, "us"});
    Records.push_back({Name, "done", double(R.Done), "requests"});
    Records.push_back({Name, "refused", double(R.Refused), "requests"});
    Records.push_back(
        {Name, "p99_over_p50", P50 > 0 ? P99 / P50 : 0.0, "x"});
  }

  // 3. Skewed grammar mix.
  std::printf("== skewed mix: 4 grammars, python-heavy, %u workers ==\n",
              Workers);
  size_t MixProbe = std::max<size_t>(
      200, std::min<size_t>(1000, size_t(400 * benchScale())));
  SkewedMix Mix(MixProbe);
  std::printf("mix: %zu requests, python %.0f%% of tokens\n",
              Mix.ReqWord.size(),
              100.0 * double(Mix.PythonTokens) / double(Mix.TotalTokens));
  double MixRate = skewedSaturationRate(Mix) * 0.5;

  Records.push_back({"service/skewed", "python_token_share",
                     double(Mix.PythonTokens) / double(Mix.TotalTokens),
                     "fraction"});
  Records.push_back({"service/skewed", "parallel_capacity",
                     double(ParallelCapacity), "threads"});
  {
    OpenLoopResult R =
        runSkewed(Mix, MixRate, [](size_t) { return uint64_t(0); });
    double P50 = double(percentile(R.LatenciesUs, 0.50));
    double P99 = double(percentile(R.LatenciesUs, 0.99));
    double TailRatio = P50 > 0 ? P99 / P50 : 0.0;
    std::printf("skewed: %zu done, %zu refused, p50 %.0fus, p99 %.0fus "
                "(%.1fx)\n",
                R.Done, R.Refused, P50, P99, TailRatio);
    const char *Name = "service/skewed/load50";
    Records.push_back({Name, "p50_us", P50, "us"});
    Records.push_back({Name, "p99_us", P99, "us"});
    Records.push_back({Name, "p99_over_p50", TailRatio, "x"});
    Records.push_back({Name, "done", double(R.Done), "requests"});
    Records.push_back({Name, "refused", double(R.Refused), "requests"});
  }

  // 4. Deadline storm: tight mixed deadlines at 80% of the mix's
  //    saturation, a third of requests carrying none. Record-only.
  std::printf("== deadline storm: 80%% load, mixed deadlines ==\n");
  size_t StormN = std::max<size_t>(
      150, std::min<size_t>(600, size_t(250 * benchScale())));
  SkewedMix Storm(StormN);
  double StormRate = skewedSaturationRate(Storm) * 0.8;
  auto StormDeadline = [&Storm](size_t I) -> uint64_t {
    if (I % 3 == 2)
      return 0; // no deadline
    // Python requests get a looser budget than the cheap grammars, but
    // both are tight against a storming backlog.
    return Storm.ReqGrammar[I] == 0 ? 50000 : 10000;
  };
  {
    OpenLoopResult R = runSkewed(Storm, StormRate, StormDeadline);
    double MetRate = double(R.Done) / double(R.Done + R.Refused);
    std::printf("storm: %zu done, %zu refused/expired, met rate %.3f\n",
                R.Done, R.Refused, MetRate);
    const char *Name = "service/storm";
    Records.push_back({Name, "deadline_met_rate", MetRate, "fraction"});
    Records.push_back({Name, "done", double(R.Done), "requests"});
    Records.push_back({Name, "refused", double(R.Refused), "requests"});
  }

  if (!writeBenchJson(Records, Opts.JsonOut))
    return 1;
  return 0;
}
