//===- bench/bench_alloc.cpp - Allocation-backend ablation --------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocation-backend ablation: SharedPtrPaperFaithful (one heap
/// allocation plus atomic refcount traffic per tree node, sim-stack node,
/// and frame forest — the stand-in for the extracted OCaml
/// implementation's GC cost that Section 6.1 blames for the slowdown on
/// small grammars) vs. Arena (parse-scoped epoch arenas, adt/Arena.h).
///
/// Two variants are timed:
///
///   sharedptr    AllocBackend::SharedPtrPaperFaithful
///   arena        AllocBackend::Arena, the default: results escape
///                zero-copy by co-owning their parse's result arena
///
/// over two regimes on the same pre-lexed corpus per language (JSON, XML,
/// DOT, Python):
///
///   cold  fresh SLL caches per parse — prediction work included
///   warm  reused warm cache — the steady-state regime where allocation
///         is the dominant remaining cost
///
/// Reported per (regime, language, variant): tokens/sec and
/// bytes-allocated/token (from the Machine's alloc.bytes counter; the
/// backends count different substrates, so bytes compare allocation
/// pressure, not a shared unit — see EXPERIMENTS.md).
///
/// Writes BENCH_alloc.json in the uniform BenchRecord schema. Hard gate:
/// the arena backend must deliver >= 1.3x tokens/sec over sharedptr on the
/// warm small-grammar suite (JSON + DOT aggregate), the regime the
/// tentpole targets; the process exits nonzero otherwise and CI fails.
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

#include "core/Parser.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace costar;
using namespace costar::bench;

namespace {

struct Variant {
  const char *Name;
  adt::AllocBackend Backend;
};

constexpr Variant Variants[] = {
    {"sharedptr", adt::AllocBackend::SharedPtrPaperFaithful},
    {"arena", adt::AllocBackend::Arena},
};

struct Measurement {
  std::string Regime;
  std::string Lang;
  std::string Backend;
  double Seconds = 0;
  uint64_t Tokens = 0;
  uint64_t AllocNodes = 0;
  uint64_t AllocBytes = 0;

  double tokensPerSec() const { return Seconds > 0 ? Tokens / Seconds : 0; }
  double bytesPerToken() const {
    return Tokens ? double(AllocBytes) / double(Tokens) : 0;
  }
};

/// One timed pass over the corpus; allocation counters are taken from an
/// untimed instrumented rerun of the identical configuration (parses are
/// deterministic, so the work is the same). Each result is dropped before
/// the next parse, so the arena variant reuses its warmed result arena.
Measurement measurePass(const char *Regime, const BenchCorpus &C,
                        const Variant &V, bool Reuse,
                        const BenchOptions &Bench) {
  Measurement M;
  M.Regime = Regime;
  M.Lang = C.L.Name;
  M.Backend = V.Name;
  M.Tokens = C.TotalTokens;

  ParseOptions Opts;
  Opts.Alloc = V.Backend;
  Opts.ReuseCache = Reuse;
  Parser P(C.L.G, C.L.Start, Opts);
  // The BenchOptions warmup doubles as the cache/arena warm pass: after
  // it, warm-regime parses hit a populated DFA cache and (for the arena
  // backend) a steady-state slab set with zero further mallocs.
  M.Seconds = measureSeconds(
      [&] {
        for (const Word &W : C.TokenStreams)
          (void)P.parse(W);
      },
      Bench);
  for (const Word &W : C.TokenStreams) {
    Machine::Stats St;
    (void)P.parse(W, &St);
    M.AllocNodes += St.AllocNodes;
    M.AllocBytes += St.AllocBytes;
  }
  return M;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Bench = parseBenchArgs(Argc, Argv, "BENCH_alloc.json");

  std::printf("=== Allocation backends: SharedPtrPaperFaithful vs Arena "
              "===\n\n");

  std::vector<BenchRecord> Records;
  // The gate aggregates the warm small-grammar suite (JSON + DOT): total
  // tokens over total seconds, per variant.
  constexpr int NumVariants = 2;
  double SmallSuiteSeconds[NumVariants] = {0, 0};
  uint64_t SmallSuiteTokens[NumVariants] = {0, 0};

  for (lang::LangId Id : lang::allLanguages()) {
    BenchCorpus C = makeCorpus(Id, 24, 100,
                               Id == lang::LangId::Python ? 1500 : 5000);
    stats::Table T({8, 14, 10, 14, 14, 12});
    T.row({"regime", "variant", "ms", "tokens/sec", "bytes/tok", "nodes/tok"});
    T.sep();
    double WarmSeconds[NumVariants] = {0, 0};
    double ColdSeconds[NumVariants] = {0, 0};
    for (int VI = 0; VI < NumVariants; ++VI) {
      const Variant &V = Variants[VI];
      Measurement Cold = measurePass("cold", C, V, /*Reuse=*/false, Bench);
      Measurement Warm = measurePass("warm", C, V, /*Reuse=*/true, Bench);
      ColdSeconds[VI] = Cold.Seconds;
      WarmSeconds[VI] = Warm.Seconds;
      if (Id == lang::LangId::Json || Id == lang::LangId::Dot) {
        SmallSuiteSeconds[VI] += Warm.Seconds;
        SmallSuiteTokens[VI] += Warm.Tokens;
      }
      for (const Measurement *M : {&Cold, &Warm}) {
        T.row({M->Regime, M->Backend, stats::fmt(M->Seconds * 1e3, 1),
               stats::fmt(M->tokensPerSec(), 0),
               stats::fmt(M->bytesPerToken(), 1),
               stats::fmt(double(M->AllocNodes) / double(M->Tokens), 2)});
        std::string Base = M->Regime + "/" + M->Lang + "/" + M->Backend;
        Records.push_back({Base, "tokens_per_sec", M->tokensPerSec(),
                           "tok/s"});
        Records.push_back({Base, "bytes_per_token", M->bytesPerToken(),
                           "bytes/tok"});
        Records.push_back({Base, "seconds", M->Seconds, "s"});
      }
    }
    std::printf("--- %s (|P| = %u, %llu tokens) ---\n", C.L.Name.c_str(),
                C.L.G.numProductions(),
                static_cast<unsigned long long>(C.TotalTokens));
    std::fputs(T.str().c_str(), stdout);
    std::printf("arena speedup vs sharedptr: cold %.2fx, warm %.2fx\n\n",
                ColdSeconds[0] / ColdSeconds[1],
                WarmSeconds[0] / WarmSeconds[1]);
  }

  double Suite[NumVariants];
  for (int VI = 0; VI < NumVariants; ++VI) {
    Suite[VI] = SmallSuiteTokens[VI] / SmallSuiteSeconds[VI];
    Records.push_back({std::string("warm/small-suite/") + Variants[VI].Name,
                       "tokens_per_sec", Suite[VI], "tok/s"});
  }
  double Speedup = Suite[1] / Suite[0];
  Records.push_back({"warm/small-suite", "arena_speedup", Speedup, "x"});

  writeBenchJson(Records, Bench.JsonOut);

  std::printf("\nShape check (arena >= 1.3x tokens/sec over sharedptr on "
              "the warm small-grammar suite): %s (%.2fx)\n",
              Speedup >= 1.3 ? "HOLDS" : "VIOLATED", Speedup);
  return Speedup >= 1.3 ? 0 : 1;
}
