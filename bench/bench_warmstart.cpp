//===- bench/bench_warmstart.cpp - Warm-start snapshot benchmark --------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quantifies the warm-start snapshot story on the deployment shape it
/// targets: many small Python files, each parsed by a *cold process* —
/// the Figure 11 regime where SLL cache construction is a fixed cost
/// that small files cannot amortize. Three configurations:
///
///   cold    every file parsed on a fresh, empty cache (what a cold
///           process pays without a snapshot)
///   warm    an in-process cache already trained on the corpus (the
///           steady state a long-lived process reaches)
///   loaded  a fresh parser adopting a cache loaded from a snapshot
///           file on disk (a cold process with a warm-start artifact)
///
/// Snapshot save and load are timed on their own, each as the minimum
/// over repeated runs: `snapshot_save_seconds`, `snapshot_load_seconds`
/// and `snapshot_load_mb_per_s` (file bytes over load seconds). Absolute
/// times do not transfer across machines, so the regression gate reads
/// `load_vs_checksum`: the seconds of one checksum() pass over the same
/// file bytes, over the load seconds. Load runs that pass (every section
/// is checksummed) plus the decode, so the ratio is the share of a load
/// spent at the speed of one linear read of the file.
///
/// Hard gates (also mirrored as absolute bounds in
/// scripts/check_bench_regression.py):
///   loaded_vs_warm >= 0.9   the snapshot path gives up at most 10% of
///                           in-process warm throughput
///   loaded_vs_cold >= 2.0   and beats per-process cold training by 2x
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

#include "core/Parser.h"
#include "snapshot/Snapshot.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

using namespace costar;
using namespace costar::bench;

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseBenchArgs(Argc, Argv, "BENCH_warmstart.json");
  std::printf("=== Warm-start snapshots: cold vs. warm vs. "
              "snapshot-loaded ===\n\n");

  // Many small files on the biggest grammar: the regime where per-process
  // cache training dominates (Figure 11's cold mode).
  BenchCorpus C = makeCorpus(lang::LangId::Python, /*NumFiles=*/16,
                             /*MinTokens=*/300, /*MaxTokens=*/1500);
  ParseOptions PO;
  PO.ReuseCache = true;

  auto ParseAll = [&](Parser &P) {
    for (const Word &W : C.TokenStreams)
      (void)P.parse(W);
  };

  // cold: each file starts a notional process with an empty cache.
  Parser ColdP(C.L.G, C.L.Start, PO);
  double ColdSec = measureSeconds(
      [&] {
        for (const Word &W : C.TokenStreams) {
          ColdP.resetCache();
          (void)ColdP.parse(W);
        }
      },
      Opts);

  // warm: one long-lived process, cache trained before the timed pass.
  Parser WarmP(C.L.G, C.L.Start, PO);
  ParseAll(WarmP);
  double WarmSec = measureSeconds([&] { ParseAll(WarmP); }, Opts);

  // Snapshot the trained cache (plus the Python inner lexer DFA) to disk,
  // then time the load a cold process would run. Save and load are each
  // the fastest of Warmup + Reps runs, as is the checksum reference pass.
  const char *SnapPath = "BENCH_warmstart.snap";
  const lexer::Scanner *Scanners[] = {C.L.IndentInner.get()};
  int Runs = Opts.Warmup + Opts.Reps;
  auto MinSeconds = [Runs](const std::function<void()> &Body) {
    double Best = stats::timeOnce(Body);
    for (int I = 1; I < Runs; ++I)
      Best = std::min(Best, stats::timeOnce(Body));
    return Best;
  };
  double SaveSec = MinSeconds([&] {
    if (auto Err = snapshot::saveSnapshot(SnapPath, C.L.G,
                                          &WarmP.sharedCache(), Scanners)) {
      std::fprintf(stderr, "snapshot save failed: %s\n",
                   Err->toString().c_str());
      std::exit(1);
    }
  });
  snapshot::LoadResult Loaded;
  double LoadSec = MinSeconds([&] {
    Loaded = snapshot::loadSnapshot(SnapPath, C.L.G, PO.Backend);
    if (!Loaded.ok()) {
      std::fprintf(stderr, "snapshot load failed: %s\n",
                   Loaded.Err->toString().c_str());
      std::exit(1);
    }
  });
  std::ifstream In(SnapPath, std::ios::binary);
  std::vector<uint8_t> FileBytes{std::istreambuf_iterator<char>(In),
                                 std::istreambuf_iterator<char>()};
  volatile uint64_t Sink = 0;
  double ChecksumSec =
      MinSeconds([&] { Sink = snapshot::checksum(FileBytes); });
  double FileMb = static_cast<double>(FileBytes.size()) / 1e6;

  // loaded: a fresh parser (cold process) adopting the loaded cache.
  Parser LoadP(C.L.G, C.L.Start, PO);
  if (!LoadP.warmStart(*Loaded.Contents.Cache)) {
    std::fprintf(stderr, "warmStart rejected the loaded cache\n");
    return 1;
  }
  double LoadedSec = measureSeconds([&] { ParseAll(LoadP); }, Opts);

  double Tokens = static_cast<double>(C.TotalTokens);
  double ColdTps = Tokens / ColdSec;
  double WarmTps = Tokens / WarmSec;
  double LoadedTps = Tokens / LoadedSec;
  double LoadedVsWarm = LoadedTps / WarmTps;
  double LoadedVsCold = LoadedTps / ColdTps;

  std::printf("corpus: %zu files, %llu tokens (Python)\n",
              C.TokenStreams.size(),
              static_cast<unsigned long long>(C.TotalTokens));
  std::printf("snapshot: %zu cache states, %.2f MB; save %.3f ms, "
              "load %.3f ms (%.0f MB/s, %.3fx a checksum pass)\n\n",
              WarmP.sharedCache().numStates(), FileMb, SaveSec * 1e3,
              LoadSec * 1e3, FileMb / LoadSec, ChecksumSec / LoadSec);
  std::printf("  cold (fresh cache per file):  %12.0f tok/s\n", ColdTps);
  std::printf("  warm (in-process cache):      %12.0f tok/s\n", WarmTps);
  std::printf("  loaded (snapshot warm-start): %12.0f tok/s\n", LoadedTps);
  std::printf("\n  loaded / warm: %.3fx   (gate: >= 0.9)\n", LoadedVsWarm);
  std::printf("  loaded / cold: %.3fx   (gate: >= 2.0)\n", LoadedVsCold);

  std::vector<BenchRecord> Records = {
      {"warmstart/python", "cold_tokens_per_sec", ColdTps, "tok/s"},
      {"warmstart/python", "warm_tokens_per_sec", WarmTps, "tok/s"},
      {"warmstart/python", "loaded_tokens_per_sec", LoadedTps, "tok/s"},
      {"warmstart/python", "snapshot_save_seconds", SaveSec, "s"},
      {"warmstart/python", "snapshot_load_seconds", LoadSec, "s"},
      {"warmstart/python", "snapshot_load_mb_per_s", FileMb / LoadSec,
       "MB/s"},
      {"warmstart/python", "load_vs_checksum", ChecksumSec / LoadSec,
       "ratio"},
      {"warmstart/python", "loaded_vs_warm", LoadedVsWarm, "ratio"},
      {"warmstart/python", "loaded_vs_cold", LoadedVsCold, "ratio"},
  };
  if (!writeBenchJson(Records, Opts.JsonOut))
    return 1;
  std::remove(SnapPath);

  bool NearWarm = LoadedVsWarm >= 0.9;
  bool BeatsCold = LoadedVsCold >= 2.0;
  std::printf("\nGates:\n");
  std::printf("  snapshot load keeps warm throughput: %s\n",
              NearWarm ? "HOLDS" : "VIOLATED");
  std::printf("  snapshot load beats cold training:   %s\n",
              BeatsCold ? "HOLDS" : "VIOLATED");
  return (NearWarm && BeatsCold) ? 0 : 1;
}
