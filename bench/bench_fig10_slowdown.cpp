//===- bench/bench_fig10_slowdown.cpp - Figure 10 reproduction ----------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces Figure 10 of the paper: CoStar's average slowdown relative
/// to the (unverified, imperative) baseline on each benchmark, in two
/// configurations:
///
///   parse-only  — CoStar parser vs. baseline ATN parser on pre-tokenized
///                 input (paper bars: 5.4x / 11.0x / 6.9x / 49.4x);
///   pipeline    — (lexer + CoStar) vs. (lexer + baseline): the cost of
///                 swapping the parser inside a lexing/parsing pipeline
///                 (paper bars: 4.0x / 8.5x / 6.5x / 4.3x).
///
/// Both engines run with a cold cache per file, the paper's configuration
/// ("in each trial, we instantiated an ANTLR parser ... with an empty
/// cache because CoStar does not currently offer a way to reuse a cache"),
/// and the paper-config CoStar runs the AVL cache, shared_ptr stacks,
/// set-based FIRST/FOLLOW and the scalar lexer.
/// The shapes expected to carry over: the baseline wins everywhere, the
/// parse-only gap is largest on the largest grammar (Python), and the
/// pipeline gap on Python collapses because lexing (indentation handling)
/// dominates.
///
/// A third configuration measures what this codebase adds beyond the
/// paper: CoStar with every optimization layer on (reused SLL cache warmed
/// on the corpus, hashed cache backend, arena allocation, bitset
/// FIRST/FOLLOW) against the same cold-cache ATN baseline. The hard gate —
/// enforced here and against the committed BENCH_fig10.json by
/// scripts/check_bench_regression.py — is that this configuration beats
/// the imperative baseline (slowdown < 1.0x) on at least one workload.
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

#include "atn/AtnParser.h"
#include "core/Parser.h"

#include <algorithm>
#include <cstdio>

using namespace costar;
using namespace costar::bench;

int main(int Argc, char **Argv) {
  BenchOptions Opts = parseBenchArgs(Argc, Argv, "BENCH_fig10.json",
                                     /*DefaultReps=*/3);

  std::printf("=== Figure 10: CoStar slowdown vs. the ATN baseline ===\n");
  std::printf("(cold cache per file for both engines; median of %d trials "
              "per file)\n\n",
              Opts.Reps);

  stats::Table T({8, 12, 12, 12, 14, 12, 12, 12, 12});
  T.row({"bench", "costar ms", "opt ms", "baseline ms", "parse-slowdn",
         "pipe-slowdn", "opt-slowdn", "paper-parse", "paper-pipe"});
  T.sep();

  const double PaperParse[] = {5.4, 11.0, 6.9, 49.4};
  const double PaperPipe[] = {4.0, 8.5, 6.5, 4.3};

  std::vector<BenchRecord> Records;
  std::vector<double> ParseSlow;
  std::vector<double> OptSlow;
  int I = 0;
  for (lang::LangId Id : lang::allLanguages()) {
    BenchCorpus C = makeTimingCorpus(Id, /*NumFiles=*/8);
    // The paper's configuration: every parse-time substitution layer on
    // its paper-faithful backend (AVL cache, shared_ptr stacks), and the
    // scalar lexer for the pipeline column.
    ParseOptions PaperCfg;
    PaperCfg.Backend = CacheBackend::AvlPaperFaithful;
    PaperCfg.Alloc = adt::AllocBackend::SharedPtrPaperFaithful;
    Parser CoStar(C.L.G, C.L.Start, PaperCfg);
    C.L.setLexBackend(lexer::LexBackend::ScalarPaperFaithful);
    atn::AtnParser Baseline(C.L.G, C.L.Start);

    // The optimized configuration: everything the substitution layers
    // offer at once. Cache reuse is the big lever (the paper's CoStar
    // cannot reuse one); the warm pass below mirrors a long-running
    // service that has already seen representative input.
    ParseOptions OptCfg;
    OptCfg.ReuseCache = true;
    OptCfg.Backend = CacheBackend::Hashed;
    OptCfg.Alloc = adt::AllocBackend::Arena;
    Parser Optimized(C.L.G, C.L.Start, OptCfg);
    for (const Word &W : C.TokenStreams)
      (void)Optimized.parse(W);

    double CoStarSec = 0, OptSec = 0, BaselineSec = 0, LexSec = 0;
    for (size_t F = 0; F < C.TokenStreams.size(); ++F) {
      const Word &W = C.TokenStreams[F];
      CoStarSec += stats::timeMedian([&] { (void)CoStar.parse(W); }, Opts.Reps);
      OptSec += stats::timeMedian([&] { (void)Optimized.parse(W); }, Opts.Reps);
      BaselineSec += stats::timeMedian(
          [&] {
            Baseline.resetCache(); // cold cache, as in the paper
            (void)Baseline.parse(W);
          },
          Opts.Reps);
      LexSec += stats::timeMedian(
          [&] { (void)C.L.lex(C.Sources[F]); }, Opts.Reps);
    }

    double Parse = CoStarSec / BaselineSec;
    double Pipe = (LexSec + CoStarSec) / (LexSec + BaselineSec);
    double Opt = OptSec / BaselineSec;
    ParseSlow.push_back(Parse);
    OptSlow.push_back(Opt);
    // The paper has bars for its four benchmarks only (not Verilog).
    bool InPaper = I < 4;
    T.row({C.L.Name, stats::fmt(CoStarSec * 1e3, 1),
           stats::fmt(OptSec * 1e3, 1), stats::fmt(BaselineSec * 1e3, 1),
           stats::fmt(Parse, 1) + "x", stats::fmt(Pipe, 1) + "x",
           stats::fmt(Opt, 2) + "x",
           InPaper ? stats::fmt(PaperParse[I], 1) + "x" : "-",
           InPaper ? stats::fmt(PaperPipe[I], 1) + "x" : "-"});
    Records.push_back({"fig10/" + C.L.Name, "parse_slowdown", Parse, "x"});
    Records.push_back({"fig10/" + C.L.Name, "pipe_slowdown", Pipe, "x"});
    Records.push_back(
        {"fig10/" + C.L.Name, "optimized_slowdown", Opt, "x"});
    ++I;
  }
  std::fputs(T.str().c_str(), stdout);

  double BestOpt = *std::min_element(OptSlow.begin(), OptSlow.end());
  Records.push_back({"fig10/summary", "best_optimized_slowdown", BestOpt, "x"});

  bool BaselineWins = true;
  for (double S : ParseSlow)
    BaselineWins &= S > 1.0;
  bool PythonWorst = ParseSlow[3] >= ParseSlow[0] &&
                     ParseSlow[3] >= ParseSlow[2];
  bool OptBeatsAtn = BestOpt < 1.0;
  std::printf("\nShape checks:\n");
  std::printf("  baseline faster than paper-config CoStar on every "
              "benchmark: %s\n",
              BaselineWins ? "HOLDS" : "VIOLATED");
  std::printf("  largest parse-only gap on the largest grammar (Python): "
              "%s\n",
              PythonWorst ? "HOLDS" : "VIOLATED");
  std::printf("\nHard gates:\n");
  std::printf("  optimized CoStar beats the ATN baseline on >=1 workload "
              "(best %.2fx, need < 1.0x): %s\n",
              BestOpt, OptBeatsAtn ? "PASS" : "FAIL");

  if (!writeBenchJson(Records, Opts.JsonOut))
    return 1;
  // The shape checks replicate the paper's figure at the paper's corpus
  // sizes; reduced-scale smoke runs shrink files until the baseline's
  // per-file cold-start costs dominate and the ratios flip, so only the
  // hard gate decides the exit code there.
  bool FullScale = benchScale() >= 1.0;
  if (!FullScale)
    std::printf("\n(reduced COSTAR_BENCH_SCALE: shape checks are "
                "informational; only the hard gate decides the exit "
                "code)\n");
  return (OptBeatsAtn && (BaselineWins || !FullScale)) ? 0 : 1;
}
