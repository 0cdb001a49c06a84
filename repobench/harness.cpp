//===- repobench/harness.cpp - Repository benchmark harness ---------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark: drives the library only through its public
/// calls and times each call from outside. Three workloads:
///
///  - cold-files: a short-lived single-threaded process on the library
///    defaults (fresh SLL cache per parse, the paper's configuration) over
///    a seeded corpus of all five languages. Prediction dominates.
///  - warm-files: a long-lived daemon re-parsing the same corpus from a
///    snapshot trained on it in an earlier process (`train`), so the timed
///    passes only read the SLL cache. Lexer, step loop, arena, detach,
///    tree walk and lint dominate.
///  - service-skewed: a ParseService (nproc - 1 workers, default options)
///    fed pre-lexed files that no service sees twice, from one generator
///    thread; phase 1 is an open loop with seeded Poisson arrivals, phase 2
///    a closed loop holding a fixed number of requests outstanding.
///
/// Each figure rests on the fastest of several measurements of the same
/// work spread over the run, and end-to-end times are scaled by the
/// machine's speed during the run, measured with a fixed calibration
/// kernel (MachineSpeed).
///
/// Every accepted tree is checked to be Unique, to yield its input tokens,
/// and to equal the tree of the independent ATN baseline (src/atn); the
/// ATN trees are computed after the timed window, outside set-up.
///
/// Usage (run.py builds the harness and drives it):
///   repobench train --seed N --snapshots DIR
///   repobench run --workload W --seed N --seconds S --trace 0|1
///                 --snapshots DIR --trace-out FILE
/// The last line of `run`'s standard output is the result JSON object.
///
//===----------------------------------------------------------------------===//

#include "atn/AtnParser.h"
#include "core/Parser.h"
#include "lang/Language.h"
#include "semantic/VerilogLint.h"
#include "service/Service.h"
#include "snapshot/Snapshot.h"
#include "workload/Generators.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace costar;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

//===----------------------------------------------------------------------===//
// Digests
//===----------------------------------------------------------------------===//

uint64_t splitmix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

uint64_t mix(uint64_t H, uint64_t V) { return splitmix64(H ^ V) + V; }

uint64_t fnv1a(std::string_view S) {
  uint64_t H = 0xCBF29CE484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001B3ull;
  }
  return H;
}

/// Structural digest of a parse tree: a pre-order walk over (kind, symbol,
/// arity) and leaf (terminal, lexeme), which determines the tree. Iterative,
/// because desugared list spines can be tens of thousands of nodes deep.
uint64_t treeDigest(const Tree &Root) {
  uint64_t H = 0x7265706F62656E63ull;
  std::vector<const Tree *> Stack{&Root};
  while (!Stack.empty()) {
    const Tree *T = Stack.back();
    Stack.pop_back();
    if (T->isLeaf()) {
      H = mix(H, 1);
      H = mix(H, T->token().Term);
      H = mix(H, fnv1a(T->token().Lexeme));
      continue;
    }
    const Forest &Kids = T->children();
    H = mix(H, 2);
    H = mix(H, T->nonterminal());
    H = mix(H, Kids.size());
    for (auto It = Kids.rbegin(); It != Kids.rend(); ++It)
      Stack.push_back(It->get());
  }
  return H;
}

/// Digest of a lint report's findings, in the report's canonical order.
uint64_t lintDigest(const analysis::AnalysisReport &R) {
  uint64_t H = mix(0x6C696E74ull, R.Diags.size());
  for (const analysis::Diagnostic &D : R.Diags) {
    H = mix(H, static_cast<uint64_t>(D.Code));
    H = mix(H, static_cast<uint64_t>(D.Sev));
    H = mix(H, fnv1a(D.Message));
    H = mix(H, fnv1a(D.Hint));
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Sample summaries
//===----------------------------------------------------------------------===//

/// Median and tail of a sample set. The tail is the highest percentile with
/// at least ten samples beyond it (the maximum when there are fewer than
/// eleven samples); Pct states which percentile that is.
struct Summary {
  double P50 = 0, Tail = 0, Pct = 100;
  size_t N = 0;
};

Summary summarize(std::vector<double> V) {
  Summary S;
  S.N = V.size();
  if (V.empty())
    return S;
  std::sort(V.begin(), V.end());
  size_t Mid = V.size() / 2;
  S.P50 = V.size() % 2 ? V[Mid] : 0.5 * (V[Mid - 1] + V[Mid]);
  size_t TailIdx = V.size() > 10 ? V.size() - 11 : V.size() - 1;
  S.Tail = V[TailIdx];
  S.Pct = 100.0 * double(TailIdx + 1) / double(V.size());
  return S;
}

double median(std::vector<double> V) { return summarize(std::move(V)).P50; }


//===----------------------------------------------------------------------===//
// Result output
//===----------------------------------------------------------------------===//

/// Metrics in insertion order, printed as the result line's "metrics".
class MetricSet {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Items;

public:
  void set(const std::string &Name, double Value, const std::string &Unit) {
    for (auto &It : Items)
      if (It.first == Name) {
        It.second = {Value, Unit};
        return;
      }
    Items.push_back({Name, {Value, Unit}});
  }
  std::string json() const {
    std::string Out = "{";
    char Buf[64];
    for (size_t I = 0; I < Items.size(); ++I) {
      std::snprintf(Buf, sizeof(Buf), "%.17g", Items[I].second.first);
      Out += (I ? ", \"" : "\"") + Items[I].first + "\": {\"value\": " +
             Buf + ", \"unit\": \"" + Items[I].second.second + "\"}";
    }
    return Out + "}";
  }
};

//===----------------------------------------------------------------------===//
// Spans (the traced run)
//===----------------------------------------------------------------------===//

/// Spans recorded around the calls into each layer. Kept in memory and
/// written out when the run ends. A span's Id groups the spans of one file
/// or request; Parent is the index of the enclosing span (or -1).
struct Span {
  const char *Name;
  int64_t Parent;
  uint64_t Id;
  Clock::time_point Start, End;
};

using Interval = std::pair<Clock::time_point, Clock::time_point>;

class SpanLog {
public:
  bool On = false;
  std::vector<Span> Spans;

  int64_t add(const char *Name, int64_t Parent, uint64_t Id,
              Clock::time_point Start, Clock::time_point End) {
    if (!On)
      return -1;
    Spans.push_back({Name, Parent, Id, Start, End});
    return static_cast<int64_t>(Spans.size()) - 1;
  }

  /// Self time per span name: each span's duration minus the part of its
  /// interval its children cover, summed per name.
  std::map<std::string, double> selfSeconds() const {
    std::vector<std::vector<Interval>> Kids(Spans.size());
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Kids[S.Parent].push_back({S.Start, S.End});
    std::map<std::string, double> Out;
    for (size_t I = 0; I < Spans.size(); ++I)
      Out[Spans[I].Name] +=
          secondsBetween(Spans[I].Start, Spans[I].End) - covered(Kids[I]);
    return Out;
  }

  /// Seconds covered by the union of the intervals \p Iv.
  static double covered(std::vector<Interval> Iv) {
    std::sort(Iv.begin(), Iv.end());
    double Sum = 0;
    size_t I = 0;
    while (I < Iv.size()) {
      auto Lo = Iv[I].first, Hi = Iv[I].second;
      for (++I; I < Iv.size() && Iv[I].first <= Hi; ++I)
        Hi = std::max(Hi, Iv[I].second);
      Sum += secondsBetween(Lo, Hi);
    }
    return Sum;
  }

  /// Share of the top-level spans named \p Root that the layer spans under
  /// them cover. Children named in \p Excluded (the benchmark's own checks)
  /// are taken out of both the numerator and the denominator.
  double coveredFrac(const char *Root, const char *Excluded) const {
    std::vector<std::vector<Interval>> Layers(Spans.size());
    std::vector<double> Skip(Spans.size(), 0.0);
    for (const Span &S : Spans) {
      if (S.Parent < 0)
        continue;
      if (std::strcmp(S.Name, Excluded) == 0)
        Skip[S.Parent] += secondsBetween(S.Start, S.End);
      else
        Layers[S.Parent].push_back({S.Start, S.End});
    }
    double Cov = 0, Total = 0;
    for (size_t I = 0; I < Spans.size(); ++I) {
      if (std::strcmp(Spans[I].Name, Root) != 0)
        continue;
      Total += secondsBetween(Spans[I].Start, Spans[I].End) - Skip[I];
      Cov += covered(Layers[I]);
    }
    return Total > 0 ? Cov / Total : 0.0;
  }

  bool write(const std::string &Path,
             const std::vector<std::pair<std::string, double>> &Counts) const {
    std::ofstream F(Path, std::ios::trunc);
    if (!F)
      return false;
    Clock::time_point T0 = Spans.empty() ? Clock::now() : Spans[0].Start;
    for (const Span &S : Spans)
      T0 = std::min(T0, S.Start);
    char Buf[256];
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::snprintf(
          Buf, sizeof(Buf),
          "{\"span\": %zu, \"name\": \"%s\", \"parent\": %lld, \"id\": %llu, "
          "\"start_us\": %.3f, \"end_us\": %.3f}\n",
          I, S.Name, static_cast<long long>(S.Parent),
          static_cast<unsigned long long>(S.Id),
          secondsBetween(T0, S.Start) * 1e6, secondsBetween(T0, S.End) * 1e6);
      F << Buf;
    }
    for (const auto &[Name, Value] : Counts) {
      std::snprintf(Buf, sizeof(Buf), "{\"count\": \"%s\", \"value\": %.17g}\n",
                    Name.c_str(), Value);
      F << Buf;
    }
    return static_cast<bool>(F);
  }
};

//===----------------------------------------------------------------------===//
// Languages and inputs
//===----------------------------------------------------------------------===//

constexpr lang::LangId Langs[] = {lang::LangId::Json, lang::LangId::Xml,
                                  lang::LangId::Dot, lang::LangId::Python,
                                  lang::LangId::Verilog};
constexpr const char *LangKeys[] = {"json", "xml", "dot", "python", "verilog"};
/// Indices into Langs and LangKeys.
enum : uint32_t { JsonIdx, XmlIdx, DotIdx, PythonIdx, VerilogIdx, NumLangs };

/// One corpus file: the language index into Langs and its source text.
struct SourceFile {
  uint32_t Lang;
  std::string Src;
};

/// The file-workload corpus: per language, file-size targets spread
/// geometrically from small files (Fig. 11's regime, where cache warm-up
/// cannot be amortised) to files of a few thousand tokens. The seed only
/// changes file contents and order, so the token mix stays comparable
/// across seeds.
std::vector<SourceFile> fileCorpus(uint64_t Seed) {
  struct Shape {
    uint32_t Files, MinTok, MaxTok;
  };
  const Shape Shapes[NumLangs] = {
      {16, 60, 3400}, {16, 60, 3400}, {16, 60, 3400}, {96, 60, 1200},
      {72, 60, 2400}};
  std::vector<SourceFile> Out;
  for (uint32_t L = 0; L < NumLangs; ++L) {
    workload::Corpus C = workload::generateCorpus(
        Langs[L], splitmix64(Seed * NumLangs + L), Shapes[L].Files,
        Shapes[L].MinTok, Shapes[L].MaxTok);
    for (std::string &Src : C.Files)
      Out.push_back({L, std::move(Src)});
  }
  std::mt19937_64 Rng(splitmix64(Seed ^ 0x6F72646572ull));
  std::shuffle(Out.begin(), Out.end(), Rng);
  return Out;
}

/// Fixed Verilog corpus whose lint findings digest is frozen below (and
/// recorded in design.json), so a change in the linter's output shows on
/// any seed.
constexpr uint64_t LintCanaryDigest = 0xa954eae423227fd0ull;

std::vector<std::string> lintCanary() {
  return workload::generateCorpus(lang::LangId::Verilog, 0x11E7CA9A, 16, 60,
                                  1200)
      .Files;
}

//===----------------------------------------------------------------------===//
// Program pinning
//===----------------------------------------------------------------------===//

/// Environment variables that silently change which program is measured.
const char *pinnedEnvSet() {
  for (const char *Var :
       {"COSTAR_SERVICE_SCHED", "COSTAR_LEX_BACKEND", "COSTAR_BENCH_SCALE"})
    if (std::getenv(Var))
      return Var;
  return nullptr;
}

const char *lexBackendName(lexer::LexBackend B) {
  switch (B) {
  case lexer::LexBackend::ScalarPaperFaithful:
    return "scalar";
  case lexer::LexBackend::Swar:
    return "swar";
  case lexer::LexBackend::Simd:
    return "simd";
  case lexer::LexBackend::Auto:
    return "auto";
  }
  return "unknown";
}

void printProgram(const std::vector<std::unique_ptr<lang::Language>> &Ls) {
  std::string Lex;
  for (size_t I = 0; I < Ls.size(); ++I) {
    const lexer::Scanner *S =
        Ls[I]->Plain ? Ls[I]->Plain.get() : Ls[I]->IndentInner.get();
    Lex += std::string(I ? " " : "") + LangKeys[I] + "=" +
           (S ? lexBackendName(S->lexBackend()) : "modal");
  }
  service::ServiceOptions Defaults;
  std::printf("program: build=%s compiler=\"%s\" nproc=%u scheduler=%s "
              "lexer=[%s]\n",
              REPOBENCH_BUILD_TYPE, REPOBENCH_COMPILER,
              std::thread::hardware_concurrency(),
              service::schedulerBackendName(
                  service::resolveSchedulerBackend(Defaults.Scheduler)),
              Lex.c_str());
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

/// Resident memory now, in the same unit as peakRssMb.
double residentMb() {
  std::ifstream F("/proc/self/statm");
  uint64_t Size = 0, Resident = 0;
  F >> Size >> Resident;
  return double(Resident) * double(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// peak_rss_mb: the peak resident memory of the run above \p BaselineMb,
/// the resident memory once the harness had built its inputs (corpus or
/// request pool, and the languages it lexes them with). What is left is
/// the program's own memory: the harness's inputs stay alive throughout
/// and would otherwise dilute it.
double programPeakMb(double BaselineMb, double Peak = peakRssMb()) {
  std::printf("memory: peak %.1f MB, of which %.1f MB are the harness's "
              "inputs\n",
              Peak, BaselineMb);
  return Peak - BaselineMb;
}

//===----------------------------------------------------------------------===//
// Machine speed
//===----------------------------------------------------------------------===//

/// The speed of a shared machine drifts with what its other tenants run,
/// over stretches that can outlast a whole run: on the machine the benchmark
/// was calibrated on, the same seed's cold-files throughput, from per-file
/// minima, moved by 10-20% from one run to the next, and set-up times moved
/// with it. So the benchmark times a fixed calibration kernel (harness code
/// that never calls the library) at regular points through the run and
/// reports each end-to-end time scaled to the speed the kernel has there:
/// a time t is reported as t * CalibrationRefMs / (median kernel time of
/// the run), a throughput the other way round. A slow stretch slows the
/// kernel and the program together and cancels out; a change to the
/// library moves only the program. The median kernel time is reported
/// (calib.kernel_ms) and printed with the raw figures.
constexpr double CalibrationRefMs = 2.6;
/// Least time between two kernel samples, which keeps the kernel to a few
/// percent of the run.
constexpr double CalibrationEveryS = 0.05;
/// Samples a run takes at least; a run that found too little idle time
/// for them tops them up after its measured window.
constexpr size_t CalibrationMinSamples = 50;

/// Fixed work of the kind a parser does, without the library: inserts and
/// lookups in an open-addressing hash table, index chasing and a sort. It
/// works only in its own static buffers and never allocates, so the
/// program's heap and the memory it holds cannot change its time.
/// \returns its wall time in milliseconds.
double calibrationKernelMs() {
  constexpr size_t Slots = 1 << 14, Keys = 6000, Lookups = 60000,
                   Sorted = 20000;
  static std::array<uint64_t, Slots> Table;
  static std::array<uint32_t, Keys> Next;
  static std::array<uint64_t, Sorted> Buf;
  static volatile uint64_t Sink;
  Clock::time_point A = Clock::now();
  uint64_t X = 0x9E3779B97F4A7C15ull, H = 0;
  Table.fill(0);
  for (uint32_t I = 0; I < Keys; ++I) {
    X = splitmix64(X);
    size_t S = X & (Slots - 1);
    while (Table[S] != 0)
      S = (S + 1) & (Slots - 1);
    Table[S] = X | 1;
    Next[I] = uint32_t(X >> 40) % (I + 1);
  }
  uint32_t Cur = 0;
  for (uint32_t I = 0; I < Lookups; ++I) {
    X = splitmix64(X);
    size_t S = X & (Slots - 1);
    while (Table[S] != 0 && Table[S] != (X | 1))
      S = (S + 1) & (Slots - 1);
    H += S;
    Cur = Next[(Cur + uint32_t(X)) % Keys];
    H += Cur;
  }
  for (uint64_t &E : Buf)
    E = X = splitmix64(X);
  std::sort(Buf.begin(), Buf.end());
  Sink = Sink + H + Buf[100];
  return secondsBetween(A, Clock::now()) * 1e3;
}

class MachineSpeed {
  std::vector<double> Ms;
  Clock::time_point Last;

public:
  /// Times the kernel if CalibrationEveryS has passed since the last time.
  void sample() {
    Clock::time_point Now = Clock::now();
    if (!Ms.empty() && secondsBetween(Last, Now) < CalibrationEveryS)
      return;
    Ms.push_back(calibrationKernelMs());
    Last = Clock::now();
  }
  void topUp() {
    while (Ms.size() < CalibrationMinSamples)
      Ms.push_back(calibrationKernelMs());
  }
  double kernelMs() const { return median(Ms); }
  /// Scales a raw time to the calibrated machine speed.
  double timeScale() const { return CalibrationRefMs / kernelMs(); }
  void print() const {
    std::printf("speed: calibration kernel median %.4f ms over %zu samples "
                "(reference %.1f ms); end-to-end times are scaled by %.4f\n",
                kernelMs(), Ms.size(), CalibrationRefMs, timeScale());
  }
};

/// The end-to-end metrics of a --trace 0 run. Times and throughputs are
/// scaled by \p Speed; the output also prints them as measured.
struct EndToEnd {
  double SetupS = 0, TokPerS = 0, P50Ms = 0, TailMs = 0, DeadlineMet = 0,
         RssMb = 0, OkFrac = 0;

  void report(MetricSet &M, const MachineSpeed &Speed) const {
    std::printf("raw: setup_s %.6g tok_per_s %.6g latency_ms_p50 %.6g "
                "latency_ms_tail %.6g\n",
                SetupS, TokPerS, P50Ms, TailMs);
    Speed.print();
    double K = Speed.timeScale();
    M.set("setup_s", SetupS * K, "s");
    M.set("tok_per_s", TokPerS / K, "tok/s");
    M.set("latency_ms_p50", P50Ms * K, "ms");
    M.set("latency_ms_tail", TailMs * K, "ms");
    M.set("deadline_met_frac", DeadlineMet, "fraction");
    M.set("peak_rss_mb", RssMb, "MB");
    M.set("ok_frac", OkFrac, "fraction");
  }
};

//===----------------------------------------------------------------------===//
// Per-layer counts
//===----------------------------------------------------------------------===//

struct CoreCounts {
  uint64_t Steps = 0, Predictions = 0, SllPredictions = 0, Failovers = 0,
           CacheHits = 0, CacheMisses = 0, StatesAdded = 0, AllocNodes = 0,
           AllocBytes = 0, TreeNodes = 0, Findings = 0;

  void add(const Machine::Stats &S) {
    Steps += S.Steps;
    Predictions += S.Pred.Predictions;
    SllPredictions += S.Pred.SllPredictions;
    Failovers += S.Pred.Failovers;
    CacheHits += S.CacheHits;
    CacheMisses += S.CacheMisses;
    StatesAdded += S.CacheStatesAdded;
    AllocNodes += S.AllocNodes;
    AllocBytes += S.AllocBytes;
  }
  void merge(const CoreCounts &C) {
    for (uint64_t CoreCounts::*F :
         {&CoreCounts::Steps, &CoreCounts::Predictions,
          &CoreCounts::SllPredictions, &CoreCounts::Failovers,
          &CoreCounts::CacheHits, &CoreCounts::CacheMisses,
          &CoreCounts::StatesAdded, &CoreCounts::AllocNodes,
          &CoreCounts::AllocBytes, &CoreCounts::TreeNodes,
          &CoreCounts::Findings})
      this->*F += C.*F;
  }
  bool operator==(const CoreCounts &) const = default;

  void report(MetricSet &M) const {
    M.set("core.steps", double(Steps), "count");
    M.set("core.predictions", double(Predictions), "count");
    M.set("core.sll_predictions", double(SllPredictions), "count");
    M.set("core.ll_failovers", double(Failovers), "count");
    M.set("core.cache_hits", double(CacheHits), "count");
    M.set("core.cache_misses", double(CacheMisses), "count");
    uint64_t Lookups = CacheHits + CacheMisses;
    M.set("core.cache_hit_rate", Lookups ? double(CacheHits) / Lookups : 0.0,
          "fraction");
    M.set("core.states_added", double(StatesAdded), "count");
    M.set("core.alloc_nodes", double(AllocNodes), "count");
    M.set("core.alloc_mb", double(AllocBytes) / 1e6, "MB");
    M.set("grammar.tree_nodes", double(TreeNodes), "count");
    M.set("semantic.findings", double(Findings), "count");
  }
};

/// Every per-layer metric, zero until a workload that exercises the layer
/// sets it. A layer a workload does not run reports 0.
void zeroLayers(MetricSet &M) {
  for (const char *Ms :
       {"lang.build_ms", "core.parser_init_ms", "snapshot.load_ms",
        "snapshot.adopt_ms", "snapshot.save_ms"})
    M.set(Ms, 0, "ms");
  M.set("snapshot.mb", 0, "MB");
  M.set("lexer.busy_s", 0, "s");
  M.set("lexer.mtok_per_s", 0, "Mtok/s");
  M.set("core.parse_busy_s", 0, "s");
  for (const char *K : LangKeys)
    M.set(std::string("core.ktok_per_s.") + K, 0, "ktok/s");
  CoreCounts().report(M);
  M.set("grammar.walk_busy_s", 0, "s");
  M.set("semantic.lint_busy_s", 0, "s");
  M.set("service.start_ms", 0, "ms");
  for (const char *Q : {"p50", "tail"}) {
    M.set(std::string("service.submit_us_") + Q, 0, "us");
    M.set(std::string("service.queue_wait_ms_") + Q, 0, "ms");
    M.set(std::string("service.parse_ms_") + Q, 0, "ms");
  }
  M.set("service.cache_misses", 0, "count");
  M.set("service.cache_hit_rate", 0, "fraction");
  for (const char *C : {"submitted", "rejected", "shed", "expired",
                        "breaker_open", "retries", "downgrades", "steals"})
    M.set(std::string("service.") + C, 0, "count");
  M.set("loadgen.lag_ms_tail", 0, "ms");
  M.set("trace.covered_frac", 0, "fraction");
  M.set("trace.overhead_frac", 0, "fraction");
  M.set("calib.kernel_ms", 0, "ms");
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

struct Options {
  std::string Command, Workload, SnapDir, TraceOut;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
};

bool parseOptions(int Argc, char **Argv, Options &O) {
  if (Argc < 2)
    return false;
  O.Command = Argv[1];
  for (int I = 2; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      O.Workload = V;
    else if (K == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      O.Seconds = std::atof(V.c_str());
    else if (K == "--trace" && (V == "0" || V == "1"))
      O.Trace = V == "1";
    else if (K == "--snapshots")
      O.SnapDir = V;
    else if (K == "--trace-out")
      O.TraceOut = V;
    else
      return false;
  }
  return (Argc % 2) == 0;
}

//===----------------------------------------------------------------------===//
// File workloads (cold-files, warm-files)
//===----------------------------------------------------------------------===//

/// The program as a file-parsing process holds it after set-up.
struct FileProgram {
  std::vector<std::unique_ptr<lang::Language>> Langs;
  std::vector<std::unique_ptr<Parser>> Parsers;
  std::unique_ptr<semantic::VerilogLinter> Linter;
};

struct SetupTimes {
  double LangMs = 0, InitMs = 0, LoadMs = 0, AdoptMs = 0, StartMs = 0,
         SnapMb = 0, TotalS = 0;
};

std::string snapshotPath(const std::string &Dir, size_t L) {
  return Dir + "/" + LangKeys[L] + ".snap";
}

/// Set-up of the file workloads: languages, parsers, linter and, when
/// \p SnapDir is given, snapshot load + warmStart. \returns false on a
/// snapshot failure.
bool setupFiles(bool Warm, const std::string &SnapDir, FileProgram &P,
                SetupTimes &T) {
  P = FileProgram();
  T = SetupTimes();
  Clock::time_point T0 = Clock::now();
  for (lang::LangId Id : Langs) {
    Clock::time_point A = Clock::now();
    P.Langs.push_back(std::make_unique<lang::Language>(lang::makeLanguage(Id)));
    Clock::time_point B = Clock::now();
    ParseOptions Opts;
    Opts.ReuseCache = Warm;
    P.Parsers.push_back(std::make_unique<Parser>(P.Langs.back()->G,
                                                 P.Langs.back()->Start, Opts));
    Clock::time_point C = Clock::now();
    T.LangMs += secondsBetween(A, B) * 1e3;
    T.InitMs += secondsBetween(B, C) * 1e3;
  }
  P.Linter = std::make_unique<semantic::VerilogLinter>(P.Langs[VerilogIdx]->G);
  if (!SnapDir.empty()) {
    for (size_t L = 0; L < NumLangs; ++L) {
      std::string Path = snapshotPath(SnapDir, L);
      Clock::time_point A = Clock::now();
      snapshot::LoadResult R =
          snapshot::loadSnapshot(Path, P.Langs[L]->G, CacheBackend::Hashed);
      Clock::time_point B = Clock::now();
      if (!R.ok() || !R.Contents.Cache) {
        std::fprintf(stderr, "%s: %s\n", Path.c_str(),
                     R.ok() ? "no SLL cache" : R.Err->toString().c_str());
        return false;
      }
      bool Adopted = P.Parsers[L]->warmStart(*R.Contents.Cache);
      Clock::time_point C = Clock::now();
      if (!Adopted) {
        std::fprintf(stderr, "%s: warmStart refused\n", Path.c_str());
        return false;
      }
      T.LoadMs += secondsBetween(A, B) * 1e3;
      T.AdoptMs += secondsBetween(B, C) * 1e3;
      T.SnapMb += double(std::filesystem::file_size(Path)) / 1e6;
    }
  }
  T.TotalS = secondsBetween(T0, Clock::now());
  return true;
}

/// What pass 1 saw for one file; later passes must see the same.
struct FileRef {
  uint64_t Tokens = 0, TreeHash = 0, LintHash = 0;
  CoreCounts Counts;
  bool Ok = false;
};

struct FileRun {
  /// Per corpus file, its timed milliseconds in each pass that reached it.
  std::vector<std::vector<double>> FileMs;
  uint64_t Passes = 0, Files = 0, Tokens = 0;
  /// Per corpus file, the passes in which it failed a check.
  std::vector<uint64_t> FailedPasses;
  double LangParseS[NumLangs] = {};
  uint64_t LangTokens[NumLangs] = {};
  CoreCounts PerPass; ///< pass 1 counts
};

/// One timed pass over \p Corpus, accumulated into \p R. Each file is
/// lexed, parsed, its result used (yield, lint for Verilog) and dropped;
/// the checks between those calls are not timed, and \p Speed samples the
/// machine between files. The first pass of the run fills \p Refs, which
/// every later pass must reproduce. Once \p StopAt (if given) has passed,
/// the pass ends after the current file: the run's last pass is then
/// partial, so the number of times a file is timed grows with the run's
/// speed file by file rather than a whole pass at a time.
void runPass(FileProgram &P, const std::vector<SourceFile> &Corpus,
             std::vector<FileRef> &Refs, FileRun &R, SpanLog &Log,
             MachineSpeed &Speed,
             std::optional<Clock::time_point> StopAt) {
  bool First = Refs.empty();
  if (First)
    Refs.resize(Corpus.size());
  {
    CoreCounts Pass;
    for (size_t I = 0; I < Corpus.size(); ++I) {
      const SourceFile &F = Corpus[I];
      const lang::Language &L = *P.Langs[F.Lang];
      uint64_t Id = R.Passes * Corpus.size() + I;
      Machine::Stats St;
      Clock::time_point T0 = Clock::now();
      lexer::LexResult Lex = L.lex(F.Src);
      Clock::time_point T1 = Clock::now();
      ParseResult Res = P.Parsers[F.Lang]->parse(Lex.Tokens, &St);
      Clock::time_point T2 = Clock::now();
      Word Yield;
      if (Res.accepted())
        Res.tree()->appendYield(Yield);
      Clock::time_point T3 = Clock::now();
      std::optional<analysis::AnalysisReport> Lint;
      if (F.Lang == VerilogIdx && Res.accepted())
        Lint = P.Linter->lint(Res.tree());
      Clock::time_point T4 = Clock::now();

      // Checks (untimed): Unique, yield == input, same tree, same lint and
      // same counts as pass 1 (pass 1 itself is checked against the ATN
      // baseline after the timed window).
      FileRef Now;
      Now.Tokens = Lex.Tokens.size();
      Now.Ok = Lex.ok() && Res.kind() == ParseResult::Kind::Unique &&
               Yield == Lex.Tokens;
      if (Res.accepted()) {
        Now.TreeHash = treeDigest(*Res.tree());
        Now.Counts.TreeNodes = Res.tree()->nodeCount();
      }
      if (Lint) {
        Now.LintHash = lintDigest(*Lint);
        Now.Counts.Findings = Lint->Diags.size();
      }
      Now.Counts.add(St);
      if (First)
        Refs[I] = Now;
      const FileRef &Ref = Refs[I];
      bool Ok = Now.Ok && Ref.Ok && Now.TreeHash == Ref.TreeHash &&
                Now.LintHash == Ref.LintHash && Now.Tokens == Ref.Tokens &&
                Now.Counts == Ref.Counts;
      // Dropping the file's data is the last part of using the result.
      Clock::time_point T5 = Clock::now();
      Lint.reset();
      Res = ParseResult::reject("", 0);
      Yield = Word();
      Lex = lexer::LexResult();
      Clock::time_point T6 = Clock::now();

      double FileS = secondsBetween(T0, T4) + secondsBetween(T5, T6);
      R.FileMs.resize(Corpus.size());
      R.FileMs[I].push_back(FileS * 1e3);
      R.LangParseS[F.Lang] += secondsBetween(T1, T2);
      R.LangTokens[F.Lang] += Now.Tokens;
      R.Tokens += Now.Tokens;
      ++R.Files;
      R.FailedPasses.resize(Corpus.size());
      R.FailedPasses[I] += !Ok;
      Pass.merge(Now.Counts);

      if (Log.On) {
        int64_t S = Log.add("file", -1, Id, T0, T6);
        Log.add("lexer.lex", S, Id, T0, T1);
        Log.add("core.parse", S, Id, T1, T2);
        Log.add("grammar.walk", S, Id, T2, T3);
        if (F.Lang == VerilogIdx)
          Log.add("semantic.lint", S, Id, T3, T4);
        Log.add("bench.check", S, Id, T4, T5);
        Log.add("grammar.drop", S, Id, T5, T6);
      }
      Speed.sample();
      if (StopAt && Clock::now() >= *StopAt)
        break;
    }
    if (R.Passes == 0)
      R.PerPass = Pass;
    ++R.Passes;
  }
}

/// Checks pass 1 of every file against the independent ATN baseline:
/// same Unique tree, and the same lint findings on it. \returns, per file,
/// whether it disagrees.
std::vector<bool> checkAgainstAtn(const FileProgram &P,
                                  const std::vector<SourceFile> &Corpus,
                                  const std::vector<FileRef> &Refs) {
  std::vector<std::unique_ptr<atn::AtnParser>> Atn;
  for (const auto &L : P.Langs)
    Atn.push_back(std::make_unique<atn::AtnParser>(L->G, L->Start));
  std::vector<bool> Bad(Corpus.size());
  for (size_t I = 0; I < Corpus.size(); ++I) {
    const SourceFile &F = Corpus[I];
    lexer::LexResult Lex = P.Langs[F.Lang]->lex(F.Src);
    ParseResult R = Atn[F.Lang]->parse(Lex.Tokens);
    bool Ok = R.kind() == ParseResult::Kind::Unique &&
              treeDigest(*R.tree()) == Refs[I].TreeHash;
    if (Ok && F.Lang == VerilogIdx)
      Ok = lintDigest(P.Linter->lint(R.tree())) == Refs[I].LintHash;
    if (!Ok) {
      std::printf("check: file %zu (%s) disagrees with the ATN baseline\n", I,
                  LangKeys[F.Lang]);
      Bad[I] = true;
    }
  }
  return Bad;
}

/// Lints the fixed canary corpus and \returns its findings digest.
uint64_t canaryDigest(const FileProgram &P) {
  const lang::Language &L = *P.Langs[VerilogIdx];
  Parser Pa(L.G, L.Start);
  uint64_t H = 0;
  for (const std::string &Src : lintCanary()) {
    ParseResult R = Pa.parse(L.lex(Src).Tokens);
    H = mix(H, R.accepted() ? lintDigest(P.Linter->lint(R.tree())) : 0);
  }
  return H;
}

/// Trains every language's SLL cache on the seed's corpus and saves it as
/// a snapshot per language (warm-files preparation, run in its own
/// process so the measured process starts like a fresh daemon).
int trainCommand(const Options &O) {
  std::filesystem::create_directories(O.SnapDir);
  std::vector<SourceFile> Corpus = fileCorpus(O.Seed);
  FileProgram P;
  SetupTimes T;
  setupFiles(/*Warm=*/true, /*SnapDir=*/"", P, T);
  for (const SourceFile &F : Corpus)
    P.Parsers[F.Lang]->parse(P.Langs[F.Lang]->lex(F.Src).Tokens);
  double SaveMs = 0;
  for (size_t L = 0; L < NumLangs; ++L) {
    const lang::Language &La = *P.Langs[L];
    std::vector<const lexer::Scanner *> Scanners;
    if (La.Plain)
      Scanners.push_back(La.Plain.get());
    else if (La.IndentInner)
      Scanners.push_back(La.IndentInner.get());
    Clock::time_point A = Clock::now();
    auto Err = snapshot::saveSnapshot(snapshotPath(O.SnapDir, L), La.G,
                                      &P.Parsers[L]->sharedCache(), Scanners);
    SaveMs += secondsBetween(A, Clock::now()) * 1e3;
    if (Err) {
      std::fprintf(stderr, "%s: %s\n", snapshotPath(O.SnapDir, L).c_str(),
                   Err->toString().c_str());
      return 1;
    }
  }
  std::ofstream(O.SnapDir + "/save_ms.txt") << SaveMs << "\n";
  return 0;
}

struct Outcome {
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  MetricSet Metrics;
};

/// Set-up repetitions, spread over the run. Set-up is repeated at each stop
/// of the run (before the first pass and between passes; at the service's
/// session boundaries and after its last phase) until set-up has taken
/// SetupShare of the run so far, and at least MinSetups times in all. A
/// burst at the start alone would let one slow or fast stretch of a shared
/// machine set setup_s; spread out, it weighs on setup_s as it does on the
/// other metrics. setup_s is the median; the last set-up at a stop serves
/// the run from there on.
constexpr double SetupShare = 0.05;
constexpr size_t MinSetups = 3;

class SetupSchedule {
  Clock::time_point Begin = Clock::now();
  double SetupS = 0;

public:
  std::vector<SetupTimes> Times;

  /// Runs \p Setup (a callable filling a SetupTimes, false on failure) as
  /// often as is due at this stop; at least once when \p Needed.
  template <typename Fn> bool stop(Fn &&Setup, bool Needed) {
    while (Needed ||
           SetupS < SetupShare * secondsBetween(Begin, Clock::now())) {
      Needed = false;
      if (!Setup(Times.emplace_back()))
        return false;
      SetupS += Times.back().TotalS;
    }
    return true;
  }
  /// The last stop: tops the repetitions up to MinSetups.
  template <typename Fn> bool finish(Fn &&Setup) {
    while (Times.size() < MinSetups)
      if (!stop(Setup, true))
        return false;
    return true;
  }
  double setupSeconds() const { return SetupS; }
  double medianOf(double SetupTimes::*F) const {
    std::vector<double> V;
    for (const SetupTimes &T : Times)
      V.push_back(T.*F);
    return median(V);
  }
};

Outcome filesCommand(const Options &O, bool Warm) {
  Outcome Out;
  std::vector<SourceFile> Corpus = fileCorpus(O.Seed);
  double BaselineMb = residentMb();

  FileProgram P;
  SetupSchedule Setups;
  auto Setup = [&](SetupTimes &T) {
    return setupFiles(Warm, Warm ? O.SnapDir : "", P, T);
  };
  if (!Setups.stop(Setup, /*Needed=*/true)) {
    Out.Correct = false;
    return Out;
  }
  printProgram(P.Langs);

  // Whole passes until the time is up, not counting the set-up repetitions
  // between them. A traced run alternates untraced and traced passes, so
  // both see the same conditions and the gap between them is the tracing
  // overhead.
  std::vector<FileRef> Refs;
  SpanLog Untraced, Traced;
  Traced.On = true;
  FileRun Run;
  std::optional<FileRun> TracedRun;
  if (O.Trace)
    TracedRun.emplace();
  MachineSpeed Speed;
  Clock::time_point Begin = Clock::now();
  double SetupBefore = Setups.setupSeconds();
  auto PassS = [&] {
    return secondsBetween(Begin, Clock::now()) -
           (Setups.setupSeconds() - SetupBefore);
  };
  for (uint64_t Pass = 0;; ++Pass) {
    // The first two passes are whole; a later one ends when the time is up.
    std::optional<Clock::time_point> StopAt;
    if (Pass >= 2)
      StopAt = Clock::now() + std::chrono::nanoseconds(static_cast<int64_t>(
                                  (O.Seconds - PassS()) * 1e9));
    if (O.Trace && Pass % 2)
      runPass(P, Corpus, Refs, *TracedRun, Traced, Speed, StopAt);
    else
      runPass(P, Corpus, Refs, Run, Untraced, Speed, StopAt);
    bool Done = Pass >= 1 && PassS() >= O.Seconds;
    if (!(Done ? Setups.finish(Setup) : Setups.stop(Setup, false))) {
      Out.Correct = false;
      return Out;
    }
    if (Done)
      break;
  }
  double RssMb = programPeakMb(BaselineMb);
  Speed.topUp();

  // Correctness outside the timed window and outside set-up.
  std::vector<bool> AtnBad = checkAgainstAtn(P, Corpus, Refs);
  uint64_t Canary = canaryDigest(P);
  bool CanaryOk = Canary == LintCanaryDigest;
  std::printf("check: lint canary digest %016llx (%s)\n",
              static_cast<unsigned long long>(Canary),
              CanaryOk ? "matches the frozen digest"
                       : "DIFFERS from the frozen digest");
  Out.Attempted = Run.Files + (TracedRun ? TracedRun->Files : 0);
  // A file that disagrees with the baseline fails every time it was parsed.
  for (const FileRun *R : {&Run, TracedRun ? &*TracedRun : nullptr})
    for (size_t I = 0; R && I < Corpus.size(); ++I)
      Out.Failed += AtnBad[I] ? R->FileMs[I].size() : R->FailedPasses[I];
  if (TracedRun && !(TracedRun->PerPass == Run.PerPass)) {
    std::printf("check: traced and untraced per-pass counts differ\n");
    Out.Correct = false;
  }
  Out.Correct = Out.Correct && CanaryOk && Out.Failed == 0;

  // A file's time is the minimum of its times over the run's passes.
  // Interference from the other tenants of a shared machine only ever adds
  // time, and a slow stretch of the machine can last for seconds, longer
  // than most of the passes; the minimum over passes spread across the
  // whole run keeps it out of the figures. The corpus throughput is the
  // corpus tokens over the sum of the per-file times.
  auto PerFileMs = [](const FileRun &R) {
    std::vector<double> Ms;
    for (const std::vector<double> &Times : R.FileMs)
      Ms.push_back(*std::min_element(Times.begin(), Times.end()));
    return Ms;
  };
  auto Sum = [](const std::vector<double> &V) {
    return std::accumulate(V.begin(), V.end(), 0.0);
  };
  std::vector<double> FileMs = PerFileMs(Run);
  double CorpusMs = Sum(FileMs);
  uint64_t CorpusTokens = 0;
  for (const FileRef &Ref : Refs)
    CorpusTokens += Ref.Tokens;
  Summary Lat = summarize(FileMs);
  std::printf("files: %zu files of %llu tokens in all, %llu untraced passes "
              "(the last may be partial); "
              "latency samples are per-file minima over the passes; "
              "tail = p%.3f (%zu samples, 10 beyond it); %zu set-ups\n",
              Corpus.size(), static_cast<unsigned long long>(CorpusTokens),
              static_cast<unsigned long long>(Run.Passes), Lat.Pct, Lat.N,
              Setups.Times.size());
  // warm-files measures a program whose cache is complete for the corpus;
  // a pass that still misses measured a partly cold one.
  if (Warm && (Run.PerPass.CacheMisses || Run.PerPass.StatesAdded)) {
    std::printf("check: a warm-files pass saw %llu cache misses and %llu "
                "states added (both must be 0)\n",
                static_cast<unsigned long long>(Run.PerPass.CacheMisses),
                static_cast<unsigned long long>(Run.PerPass.StatesAdded));
    Out.Correct = false;
  }

  MetricSet &M = Out.Metrics;
  if (!O.Trace) {
    EndToEnd E;
    E.SetupS = Setups.medianOf(&SetupTimes::TotalS);
    E.TokPerS = double(CorpusTokens) / (CorpusMs / 1e3);
    E.P50Ms = Lat.P50;
    E.TailMs = Lat.Tail;
    E.OkFrac = 1.0 - double(Out.Failed) / double(Out.Attempted);
    E.DeadlineMet = E.OkFrac;
    E.RssMb = RssMb;
    E.report(M, Speed);
    return Out;
  }

  const FileRun &TR = *TracedRun;
  zeroLayers(M);
  M.set("lang.build_ms", Setups.medianOf(&SetupTimes::LangMs), "ms");
  M.set("core.parser_init_ms", Setups.medianOf(&SetupTimes::InitMs), "ms");
  if (Warm) {
    M.set("snapshot.load_ms", Setups.medianOf(&SetupTimes::LoadMs), "ms");
    M.set("snapshot.adopt_ms", Setups.medianOf(&SetupTimes::AdoptMs), "ms");
    M.set("snapshot.mb", Setups.medianOf(&SetupTimes::SnapMb), "MB");
    std::ifstream SaveF(O.SnapDir + "/save_ms.txt");
    double SaveMs = 0;
    SaveF >> SaveMs;
    M.set("snapshot.save_ms", SaveMs, "ms");
  }
  // Busy times are per corpus pass, from the traced run's self times.
  std::map<std::string, double> Self = Traced.selfSeconds();
  double PerPass = double(CorpusTokens) / double(TR.Tokens);
  M.set("lexer.busy_s", Self["lexer.lex"] * PerPass, "s");
  M.set("lexer.mtok_per_s", double(TR.Tokens) / Self["lexer.lex"] / 1e6,
        "Mtok/s");
  M.set("core.parse_busy_s", Self["core.parse"] * PerPass, "s");
  for (size_t L = 0; L < NumLangs; ++L)
    M.set(std::string("core.ktok_per_s.") + LangKeys[L],
          double(TR.LangTokens[L]) / TR.LangParseS[L] / 1e3, "ktok/s");
  TR.PerPass.report(M);
  M.set("grammar.walk_busy_s",
        (Self["grammar.walk"] + Self["grammar.drop"]) * PerPass, "s");
  M.set("semantic.lint_busy_s", Self["semantic.lint"] * PerPass, "s");
  M.set("trace.covered_frac", Traced.coveredFrac("file", "bench.check"),
        "fraction");
  // 1 - traced/untraced tok_per_s, both estimated like tok_per_s.
  M.set("trace.overhead_frac", 1.0 - CorpusMs / Sum(PerFileMs(TR)),
        "fraction");
  M.set("calib.kernel_ms", Speed.kernelMs(), "ms");

  std::vector<std::pair<std::string, double>> Counts;
  for (const auto &[Name, S] : Self)
    Counts.push_back({"self_s." + Name, S});
  Counts.push_back({"passes", double(TR.Passes)});
  if (!O.TraceOut.empty() && !Traced.write(O.TraceOut, Counts)) {
    std::fprintf(stderr, "cannot write %s\n", O.TraceOut.c_str());
    Out.Correct = false;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// service-skewed
//===----------------------------------------------------------------------===//

/// One pre-lexed request of the service workload.
struct ServiceInput {
  uint32_t Lang = 0;
  Word Tokens;
  service::Priority Class = service::Priority::Batch;
  /// Deadline after the request's due time (phase 1 only; 0 = none).
  uint64_t DeadlineUs = 0;
  /// Phase-1 session schedule, and due time after the session start.
  uint32_t Session = 0;
  double DueS = 0;
};

/// The skewed request mix, as a fixed pattern so that every seed (and
/// every session) sees the same language sequence and file sizes; the seed
/// changes file contents, arrival times, priorities and deadlines. A cycle
/// of ten requests holds one Python file of 600-3000 tokens (the slowest
/// grammar; these carry most of the tokens) and nine small files of 60-300
/// tokens: six Verilog and one each of XML, DOT and JSON. Verilog, the
/// slowest of the small grammars, then holds the middle of the latency
/// distribution, so the median rests on many samples of one kind instead
/// of falling between two. Sizes rotate through geometric ladders per
/// language. Every request is its own generated file. Two Python files of
/// half the size per cycle would give the tail more samples, but made both
/// the median and the tail noisier across seeds.
ServiceInput makeServiceInput(const lang::Language *const *Ls, size_t K,
                              std::mt19937_64 &Rng, bool Phase1) {
  constexpr uint32_t Cycle[] = {PythonIdx, VerilogIdx, XmlIdx,  VerilogIdx,
                                DotIdx,    VerilogIdx, JsonIdx, VerilogIdx,
                                VerilogIdx, VerilogIdx};
  constexpr size_t CycleLen = std::size(Cycle);
  constexpr uint32_t Rungs = 8;
  ServiceInput In;
  std::uniform_real_distribution<double> U(0.0, 1.0);
  In.Lang = Cycle[K % CycleLen];
  // This request's rank among the earlier requests of its language.
  size_t PerCycle = 0, Before = 0;
  for (size_t J = 0; J < CycleLen; ++J)
    if (Cycle[J] == In.Lang) {
      ++PerCycle;
      Before += J < K % CycleLen;
    }
  size_t Rung = (K / CycleLen * PerCycle + Before) % Rungs;
  bool Python = In.Lang == PythonIdx;
  double Lo = Python ? 600 : 60, Hi = Python ? 3000 : 300;
  uint32_t Target = static_cast<uint32_t>(
      Lo * std::pow(Hi / Lo, double(Rung) / double(Rungs - 1)));
  In.Tokens = Ls[In.Lang]->lex(workload::generateSource(Langs[In.Lang], Rng,
                                                        Target))
                  .Tokens;
  if (Phase1) {
    // Priority classes and deadlines: interactive requests get the
    // tightest deadlines, best-effort the loosest.
    double C = U(Rng);
    In.Class = C < 0.3   ? service::Priority::Interactive
               : C < 0.8 ? service::Priority::Batch
                         : service::Priority::BestEffort;
    uint64_t Base = In.Class == service::Priority::Interactive ? 500000
                    : In.Class == service::Priority::Batch     ? 1000000
                                                               : 2000000;
    In.DeadlineUs = Base + static_cast<uint64_t>(U(Rng) * double(Base));
  }
  return In;
}

/// Per-request record filled from the responses.
struct ReqRecord {
  uint32_t Responses = 0;
  service::ResponseStatus Status = service::ResponseStatus::Rejected;
  bool Accepted = false, Ok = false, InTime = false;
  uint64_t TreeHash = 0;
  double LatencyMs = 0, QueueMs = 0, ParseMs = 0, SubmitUs = 0, LagMs = 0;
  Clock::time_point Due, SubmitAt, DoneAt;
  Machine::Stats Stats;
  uint32_t Retries = 0;
  bool Downgraded = false;
};

struct Delivery {
  size_t Idx;
  Clock::time_point At;
  service::Response Resp;
};

/// Responses arrive on worker threads; the generator thread checks them in
/// its idle time, so the checks never run on a worker.
struct Inbox {
  std::mutex M;
  std::condition_variable Cv;
  std::vector<Delivery> Items;

  service::ResponseCallback callback(size_t Idx) {
    return [this, Idx](service::Response &&R) {
      Clock::time_point At = Clock::now();
      {
        std::lock_guard<std::mutex> G(M);
        Items.push_back({Idx, At, std::move(R)});
      }
      Cv.notify_one();
    };
  }
  std::vector<Delivery> take() {
    std::lock_guard<std::mutex> G(M);
    return std::exchange(Items, {});
  }
};

struct ServiceProgram {
  std::vector<std::unique_ptr<lang::Language>> Langs;
  std::unique_ptr<service::ParseService> Service;
  std::vector<uint32_t> Gids;
};

unsigned serviceWorkers() {
  unsigned HW = std::thread::hardware_concurrency();
  return HW > 1 ? HW - 1 : 1;
}

bool setupService(ServiceProgram &P, SetupTimes &T) {
  P = ServiceProgram();
  T = SetupTimes();
  Clock::time_point T0 = Clock::now();
  for (lang::LangId Id : Langs)
    P.Langs.push_back(std::make_unique<lang::Language>(lang::makeLanguage(Id)));
  Clock::time_point T1 = Clock::now();
  service::ServiceOptions Opts;
  Opts.Workers = serviceWorkers();
  P.Service = std::make_unique<service::ParseService>(Opts);
  for (const auto &L : P.Langs)
    P.Gids.push_back(P.Service->addGrammar(L->G, L->Start));
  Clock::time_point T2 = Clock::now();
  P.Service->start();
  Clock::time_point T3 = Clock::now();
  T.LangMs = secondsBetween(T0, T1) * 1e3;
  T.InitMs = secondsBetween(T1, T2) * 1e3;
  T.StartMs = secondsBetween(T2, T3) * 1e3;
  T.TotalS = secondsBetween(T0, T3);
  return true;
}

struct ServiceRun {
  std::vector<ReqRecord> Recs; ///< phase 1 then phase 2
  size_t Phase1 = 0;
  double SatTokPerS = 0, PeakRssMb = 0;
  uint64_t Steals = 0;
};

/// Phase 1 runs ServiceSchedules distinct session schedules (requests and
/// due times), each ServiceReplays times, every session on a fresh service:
/// a replay is a second cold start fed the same schedule, so no service
/// ever sees an input twice. The replays of a schedule are spread over the
/// whole phase (all schedules, then all of them again), and a request's
/// latency is the minimum over its replays: a slow stretch of a shared
/// machine, or an unlucky timing of cache exchange between workers, only
/// ever adds latency (the same seed gave per-session Verilog medians from
/// 2.9 to 4.2 ms). The tail, which cold start dominates, rests on many cold
/// starts.
constexpr uint32_t ServiceSchedules = 6;
constexpr uint32_t ServiceReplays = 2;

/// The service measurement: phase 1 (open loop over \p P1, with
/// precomputed due times, each schedule run ServiceReplays times on a
/// fresh service) then phase 2 (closed loop over all of \p P2, also
/// ServiceReplays times on a fresh service). Submission K < R.Phase1 is
/// replay K / P1.size() of request K % P1.size(); submission R.Phase1 + K
/// is replay K / P2.size() of phase-2 request K % P2.size(). The set-up
/// repetitions of \p Setups fall on the session boundaries and after phase
/// 2. Spans go to \p Log, which builds them from the records after the
/// run, so tracing costs the measured window nothing. \p Speed samples the
/// machine in phase-1 idle time.
ServiceRun runService(const std::vector<ServiceInput> &P1,
                      const std::vector<ServiceInput> &P2,
                      SetupSchedule &Setups, SpanLog &Log,
                      MachineSpeed &Speed) {
  ServiceRun R;
  // Declared before the service, so it outlives every callback into it.
  Inbox Box;
  ServiceProgram P;
  auto Setup = [&](SetupTimes &T) { return setupService(P, T); };
  R.Phase1 = ServiceReplays * P1.size();
  R.Recs.resize(R.Phase1 + ServiceReplays * P2.size());
  std::vector<const ServiceInput *> In;
  for (uint32_t Replay = 0; Replay < ServiceReplays; ++Replay)
    for (const ServiceInput &I : P1)
      In.push_back(&I);
  for (uint32_t Replay = 0; Replay < ServiceReplays; ++Replay)
    for (const ServiceInput &I : P2)
      In.push_back(&I);

  size_t Outstanding = 0;
  uint64_t Phase2Tokens = 0;
  // Responses are recorded as they arrive (cheap) and their trees checked
  // later, when the generator has slack, so checking never delays an
  // arrival.
  std::deque<Delivery> Unchecked;
  auto Record = [&](std::vector<Delivery> Ds) {
    for (Delivery &D : Ds) {
      ReqRecord &Rec = R.Recs[D.Idx];
      const service::Response &Resp = D.Resp;
      const ServiceInput &Src = *In[D.Idx];
      ++Rec.Responses;
      --Outstanding;
      Rec.Status = Resp.Status;
      Rec.DoneAt = D.At;
      Rec.LatencyMs = secondsBetween(Rec.Due, D.At) * 1e3;
      if (Resp.Status != service::ResponseStatus::Done)
        continue;
      Rec.QueueMs = double(Resp.QueueWaitMicros) / 1e3;
      Rec.ParseMs =
          double(Resp.LatencyMicros - std::min(Resp.LatencyMicros,
                                               Resp.QueueWaitMicros)) /
          1e3;
      Rec.Stats = Resp.Stats;
      Rec.Retries = Resp.Retries;
      Rec.Downgraded = Resp.Downgraded;
      Rec.Accepted = Resp.Result->accepted();
      Rec.InTime = Rec.Accepted && (Src.DeadlineUs == 0 ||
                                    Rec.LatencyMs * 1e3 <= Src.DeadlineUs);
      if (D.Idx >= R.Phase1 && Rec.Accepted)
        Phase2Tokens += Src.Tokens.size();
      Unchecked.push_back(std::move(D));
    }
  };
  auto CheckOne = [&] {
    Delivery D = std::move(Unchecked.front());
    Unchecked.pop_front();
    ReqRecord &Rec = R.Recs[D.Idx];
    const ParseResult &PR = *D.Resp.Result;
    if (PR.kind() == ParseResult::Kind::Unique) {
      Word Y;
      PR.tree()->appendYield(Y);
      Rec.TreeHash = treeDigest(*PR.tree());
      Rec.Ok = Y == In[D.Idx]->Tokens;
    }
    // A deadline cut (BudgetExceeded) is a missed deadline, not a wrong
    // output; every other non-Unique result is wrong for these inputs.
    if (PR.kind() == ParseResult::Kind::BudgetExceeded)
      Rec.Ok = true;
  };
  auto Submit = [&](size_t Idx, Clock::time_point Due) {
    const ServiceInput &Src = *In[Idx];
    ReqRecord &Rec = R.Recs[Idx];
    service::Request Rq;
    Rq.Id = Idx;
    Rq.GrammarId = P.Gids[Src.Lang];
    Rq.Input = &Src.Tokens;
    Rq.Class = Src.Class;
    if (Src.DeadlineUs)
      Rq.Deadline = Due + std::chrono::microseconds(Src.DeadlineUs);
    Rec.Due = Due;
    ++Outstanding;
    Rec.SubmitAt = Clock::now();
    P.Service->submit(std::move(Rq), Box.callback(Idx));
    Clock::time_point After = Clock::now();
    Rec.SubmitUs = secondsBetween(Rec.SubmitAt, After) * 1e6;
    Rec.LagMs = secondsBetween(Due, Rec.SubmitAt) * 1e3;
  };
  auto WaitForResponses = [&](Clock::time_point Until) {
    std::unique_lock<std::mutex> G(Box.M);
    Box.Cv.wait_until(G, Until, [&] { return !Box.Items.empty(); });
  };

  auto AwaitAll = [&] {
    while (Outstanding > 0) {
      WaitForResponses(Clock::now() + std::chrono::milliseconds(5));
      Record(Box.take());
    }
  };

  // Phase 1: open loop. Until just before each due time, record responses
  // and check trees while at least 2 ms of slack remain, and sample the
  // machine's speed while at least 20 ms remain and no request is out (so
  // the kernel never competes with the service); then spin the last
  // stretch.
  for (size_t I = 0; I < R.Phase1;) {
    Setups.stop(Setup, /*Needed=*/true);
    Clock::time_point Start = Clock::now();
    uint32_t Session = In[I]->Session;
    for (; I < R.Phase1 && In[I]->Session == Session; ++I) {
      Clock::time_point Due =
          Start +
          std::chrono::nanoseconds(static_cast<int64_t>(In[I]->DueS * 1e9));
      Clock::time_point Wake = Due - std::chrono::microseconds(150);
      for (;;) {
        Record(Box.take());
        while (!Unchecked.empty() &&
               Wake - Clock::now() > std::chrono::milliseconds(2))
          CheckOne();
        if (Outstanding == 0 &&
            Wake - Clock::now() > std::chrono::milliseconds(20))
          Speed.sample();
        if (Clock::now() >= Wake)
          break;
        WaitForResponses(Wake);
      }
      while (Clock::now() < Due)
        ;
      Submit(I, Due);
    }
    AwaitAll();
    while (!Unchecked.empty())
      CheckOne();
  }

  // Phase 2: closed loop holding two requests per worker outstanding, over
  // the whole of P2, on a fresh service per replay. The service is
  // saturated until the last request is submitted; after that the loop
  // drains. A replay's throughput is the tokens completed up to the last
  // submission over that time, and the figure is the maximum over the
  // replays, as with phase-1 latency.
  const size_t Window = 2 * serviceWorkers();
  for (size_t Next = R.Phase1; Next < In.size();) {
    Setups.stop(Setup, /*Needed=*/true);
    size_t End = Next + P2.size();
    Phase2Tokens = 0;
    Clock::time_point Start = Clock::now();
    while (Next < End) {
      while (Outstanding < Window && Next < End)
        Submit(Next++, Clock::now());
      if (Next == End)
        break;
      if (!Unchecked.empty())
        CheckOne();
      else
        WaitForResponses(Clock::now() + std::chrono::milliseconds(5));
      Record(Box.take());
    }
    R.SatTokPerS = std::max(R.SatTokPerS,
                            double(Phase2Tokens) /
                                secondsBetween(Start, Clock::now()));
    AwaitAll();
    P.Service->drain();
    Record(Box.take());
    while (!Unchecked.empty())
      CheckOne();
    R.Steals += P.Service->report().Metrics.counter("service.steals");
  }
  R.PeakRssMb = peakRssMb();
  Setups.stop(Setup, false);
  Setups.finish(Setup);

  if (Log.On) {
    for (size_t I = 0; I < R.Recs.size(); ++I) {
      const ReqRecord &Rec = R.Recs[I];
      int64_t S = Log.add("request", -1, I, Rec.Due, Rec.DoneAt);
      Log.add("loadgen.lag", S, I, Rec.Due, Rec.SubmitAt);
      Clock::time_point SubmitEnd =
          Rec.SubmitAt + std::chrono::nanoseconds(
                             static_cast<int64_t>(Rec.SubmitUs * 1e3));
      Log.add("service.submit", S, I, Rec.SubmitAt, SubmitEnd);
      if (Rec.Status != service::ResponseStatus::Done)
        continue;
      Clock::time_point ParseAt =
          Rec.SubmitAt + std::chrono::nanoseconds(
                             static_cast<int64_t>(Rec.QueueMs * 1e6));
      Log.add("service.queue", S, I, Rec.SubmitAt, ParseAt);
      Log.add("service.parse", S, I, ParseAt,
              ParseAt + std::chrono::nanoseconds(
                            static_cast<int64_t>(Rec.ParseMs * 1e6)));
    }
  }
  return R;
}

/// Phase-1 arrival rate in requests per second, frozen at about a tenth of
/// the phase-2 saturation of the commit the benchmark was calibrated on
/// (design.json records the derivation). Python and JSON requests share a
/// worker, so at twice this rate cold Python parses chained behind each
/// other and the tail swung with the seeded arrival pattern.
constexpr double ArrivalRatePerS = 20;
/// Phase-2 saturation of the commit the benchmark was calibrated on, in
/// requests per second: phase 2 holds as many requests as that commit
/// completes in its share of the run.
constexpr double SaturationReqPerS = 190;

/// Generates the never-repeated input pool: phase 1 with seeded Poisson
/// due times at ArrivalRatePerS over ServiceSchedules sessions, which with
/// their replays fill \p Phase1S seconds; phase 2 with as many requests as
/// the calibration commit completes at saturation in \p Phase2S seconds
/// split over the replays.
void makeServicePool(uint64_t Seed,
                     const std::vector<std::unique_ptr<lang::Language>> &Lex,
                     double Phase1S, double Phase2S,
                     std::vector<ServiceInput> &P1,
                     std::vector<ServiceInput> &P2) {
  const lang::Language *Ls[NumLangs];
  for (size_t L = 0; L < NumLangs; ++L)
    Ls[L] = Lex[L].get();
  std::mt19937_64 Rng(splitmix64(Seed ^ 0x736B6577ull));
  std::exponential_distribution<double> Gap(ArrivalRatePerS);
  double SessionS = Phase1S / (ServiceSchedules * ServiceReplays);
  for (uint32_t Session = 0; Session < ServiceSchedules; ++Session) {
    size_t First = P1.size();
    for (double T = Gap(Rng); T < SessionS; T += Gap(Rng)) {
      P1.push_back(makeServiceInput(Ls, P1.size() - First, Rng, true));
      P1.back().Session = Session;
      P1.back().DueS = T;
    }
  }
  size_t N2 = static_cast<size_t>(SaturationReqPerS * Phase2S /
                                  ServiceReplays) +
              1;
  for (size_t I = 0; I < N2; ++I)
    P2.push_back(makeServiceInput(Ls, P1.size() + I, Rng, false));
}

Outcome serviceCommand(const Options &O) {
  Outcome Out;
  // Phase 1 gets 65% of the run: its latency percentiles need the samples,
  // while phase 2's throughput settles quickly. The rest goes to set-up
  // repetitions and to draining the service between sessions.
  double Phase1S = 0.65 * O.Seconds, Phase2S = 0.25 * O.Seconds;
  // Languages to lex the inputs with, built before (and apart from) set-up.
  std::vector<std::unique_ptr<lang::Language>> Lexers;
  for (lang::LangId Id : Langs)
    Lexers.push_back(std::make_unique<lang::Language>(lang::makeLanguage(Id)));
  printProgram(Lexers);
  std::vector<ServiceInput> P1, P2;
  makeServicePool(splitmix64(O.Seed), Lexers, Phase1S, Phase2S, P1, P2);
  double BaselineMb = residentMb();

  // A traced run is the same run: its spans are built from the records
  // after the measured window, so the per-layer figures and the end-to-end
  // ones describe the same requests.
  SpanLog Log;
  Log.On = O.Trace;
  SetupSchedule Setups;
  MachineSpeed Speed;
  ServiceRun R = runService(P1, P2, Setups, Log, Speed);
  Speed.topUp();
  double RssMb = programPeakMb(BaselineMb, R.PeakRssMb);

  // Correctness: exactly one response per submit; every Done tree is
  // Unique, yields its input and equals the ATN baseline's tree (computed
  // once per input; the replays of a phase-1 request share it).
  std::vector<std::unique_ptr<atn::AtnParser>> Atn;
  for (const auto &L : Lexers)
    Atn.push_back(std::make_unique<atn::AtnParser>(L->G, L->Start));
  std::map<const ServiceInput *, std::optional<uint64_t>> AtnDigest;
  auto SourceOf = [&](size_t I) -> const ServiceInput & {
    return I < R.Phase1 ? P1[I % P1.size()] : P2[(I - R.Phase1) % P2.size()];
  };
  for (size_t I = 0; I < R.Recs.size(); ++I) {
    ReqRecord &Rec = R.Recs[I];
    const ServiceInput &Src = SourceOf(I);
    ++Out.Attempted;
    bool Ok = Rec.Responses == 1 &&
              (Rec.Status != service::ResponseStatus::Done || Rec.Ok);
    if (Ok && Rec.Status == service::ResponseStatus::Done && Rec.Accepted) {
      auto [It, New] = AtnDigest.try_emplace(&Src);
      if (New) {
        ParseResult Ref = Atn[Src.Lang]->parse(Src.Tokens);
        if (Ref.kind() == ParseResult::Kind::Unique)
          It->second = treeDigest(*Ref.tree());
      }
      Ok = It->second == Rec.TreeHash;
    }
    if (!Ok) {
      ++Out.Failed;
      Rec.InTime = false;
    }
  }

  // A request's latency is the minimum over its replays, unless a replay
  // was refused or not served: that counts as beyond every latency limit.
  std::vector<double> Lat(P1.size(), 1e12), Lag;
  std::vector<bool> Unserved(P1.size());
  uint64_t Met = 0;
  for (size_t I = 0; I < R.Phase1; ++I) {
    const ReqRecord &Rec = R.Recs[I];
    size_t Req = I % P1.size();
    if (Rec.Status == service::ResponseStatus::Done && Rec.Accepted)
      Lat[Req] = std::min(Lat[Req], Rec.LatencyMs);
    else
      Unserved[Req] = true;
    Lag.push_back(Rec.LagMs);
    Met += Rec.InTime;
  }
  for (size_t Req = 0; Req < P1.size(); ++Req)
    if (Unserved[Req])
      Lat[Req] = 1e12;
  Summary L = summarize(Lat), G = summarize(Lag);
  // The generator fell behind when its lag tail passes 10 ms: the arrivals
  // it produced were then no longer the schedule the workload specifies
  // (a few ms of wake-up jitter on a shared machine is not that), and the
  // run measured something else.
  bool Valid = G.Tail <= 10.0;
  std::printf("service: %u workers; phase 1 %zu requests at %.1f/s, each "
              "run %u times, latency samples are per-request minima over "
              "the runs, tail = p%.3f (%zu samples, 10 beyond it), generator "
              "lag p%.3f %.3f ms (%s); phase 2 %zu requests, each run %u "
              "times, throughput is the maximum over the runs; %zu set-ups\n",
              serviceWorkers(), P1.size(), ArrivalRatePerS, ServiceReplays,
              L.Pct, L.N, G.Pct, G.Tail,
              Valid ? "valid" : "INVALID: generator fell behind", P2.size(),
              ServiceReplays, Setups.Times.size());
  Out.Correct = Valid && Out.Failed == 0;

  MetricSet &M = Out.Metrics;
  if (!O.Trace) {
    EndToEnd E;
    E.SetupS = Setups.medianOf(&SetupTimes::TotalS);
    E.TokPerS = R.SatTokPerS;
    E.P50Ms = L.P50;
    E.TailMs = L.Tail;
    E.DeadlineMet = double(Met) / double(R.Phase1);
    E.RssMb = RssMb;
    E.OkFrac = 1.0 - double(Out.Failed) / double(Out.Attempted);
    E.report(M, Speed);
    return Out;
  }

  zeroLayers(M);
  M.set("lang.build_ms", Setups.medianOf(&SetupTimes::LangMs), "ms");
  M.set("core.parser_init_ms", Setups.medianOf(&SetupTimes::InitMs), "ms");
  M.set("service.start_ms", Setups.medianOf(&SetupTimes::StartMs), "ms");
  std::vector<double> SubmitUs, QueueMs, ParseMs;
  CoreCounts Core;
  double LangParseS[NumLangs] = {}, ParseS = 0;
  uint64_t LangTokens[NumLangs] = {};
  std::map<std::string, uint64_t> Status;
  uint64_t Retries = 0, Downgrades = 0;
  for (size_t I = 0; I < R.Recs.size(); ++I) {
    const ReqRecord &Rec = R.Recs[I];
    const ServiceInput &Src = SourceOf(I);
    SubmitUs.push_back(Rec.SubmitUs);
    ++Status[service::responseStatusName(Rec.Status)];
    if (Rec.Status != service::ResponseStatus::Done)
      continue;
    QueueMs.push_back(Rec.QueueMs);
    ParseMs.push_back(Rec.ParseMs);
    Core.add(Rec.Stats);
    ParseS += Rec.ParseMs / 1e3;
    LangParseS[Src.Lang] += Rec.ParseMs / 1e3;
    LangTokens[Src.Lang] += Src.Tokens.size();
    Retries += Rec.Retries;
    Downgrades += Rec.Downgraded;
  }
  Core.report(M);
  M.set("grammar.tree_nodes", 0, "count");
  M.set("core.parse_busy_s", ParseS, "s");
  for (size_t Lg = 0; Lg < NumLangs; ++Lg)
    M.set(std::string("core.ktok_per_s.") + LangKeys[Lg],
          LangParseS[Lg] > 0 ? double(LangTokens[Lg]) / LangParseS[Lg] / 1e3
                             : 0.0,
          "ktok/s");
  Summary S1 = summarize(SubmitUs), S2 = summarize(QueueMs),
          S3 = summarize(ParseMs);
  M.set("service.submit_us_p50", S1.P50, "us");
  M.set("service.submit_us_tail", S1.Tail, "us");
  M.set("service.queue_wait_ms_p50", S2.P50, "ms");
  M.set("service.queue_wait_ms_tail", S2.Tail, "ms");
  M.set("service.parse_ms_p50", S3.P50, "ms");
  M.set("service.parse_ms_tail", S3.Tail, "ms");
  M.set("service.cache_misses", double(Core.CacheMisses), "count");
  uint64_t Lookups = Core.CacheHits + Core.CacheMisses;
  M.set("service.cache_hit_rate",
        Lookups ? double(Core.CacheHits) / Lookups : 0.0, "fraction");
  M.set("service.submitted", double(R.Recs.size()), "count");
  M.set("service.rejected", double(Status["rejected"]), "count");
  M.set("service.shed", double(Status["shed"]), "count");
  M.set("service.expired", double(Status["expired"]), "count");
  M.set("service.breaker_open", double(Status["breaker_open"]), "count");
  M.set("service.retries", double(Retries), "count");
  M.set("service.downgrades", double(Downgrades), "count");
  M.set("service.steals", double(R.Steals), "count");
  M.set("loadgen.lag_ms_tail", G.Tail, "ms");
  M.set("trace.covered_frac", Log.coveredFrac("request", ""), "fraction");
  // Zero by construction: the spans are built after the measured window.
  M.set("trace.overhead_frac", 0, "fraction");
  M.set("calib.kernel_ms", Speed.kernelMs(), "ms");

  std::map<std::string, double> Self = Log.selfSeconds();
  std::vector<std::pair<std::string, double>> Counts;
  for (const auto &[Name, S] : Self)
    Counts.push_back({"self_s." + Name, S});
  for (const auto &[Name, N] : Status)
    Counts.push_back({"status." + Name, double(N)});
  if (!O.TraceOut.empty() && !Log.write(O.TraceOut, Counts)) {
    std::fprintf(stderr, "cannot write %s\n", O.TraceOut.c_str());
    Out.Correct = false;
  }
  return Out;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s train --seed N --snapshots DIR\n"
               "       %s run --workload cold-files|warm-files|service-skewed "
               "--seed N --seconds S --trace 0|1 [--snapshots DIR] "
               "[--trace-out FILE]\n",
               Argv0, Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to run: this build has assertions enabled, "
                       "which measures a different program\n");
  return 2;
#endif
  if (const char *Var = pinnedEnvSet()) {
    std::fprintf(stderr,
                 "refusing to run: %s is set, which changes the program "
                 "being measured\n",
                 Var);
    return 2;
  }
  Options O;
  if (!parseOptions(Argc, Argv, O))
    return usage(Argv[0]);
  if (O.Command == "train")
    return O.SnapDir.empty() ? usage(Argv[0]) : trainCommand(O);
  if (O.Command != "run" || O.Seconds <= 0)
    return usage(Argv[0]);

  Outcome Out;
  if (O.Workload == "cold-files" || O.Workload == "warm-files")
    Out = filesCommand(O, O.Workload == "warm-files");
  else if (O.Workload == "service-skewed")
    Out = serviceCommand(O);
  else
    return usage(Argv[0]);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Out.Correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(
                  Out.Attempted, 1)),
              static_cast<unsigned long long>(Out.Failed),
              Out.Metrics.json().c_str());
  return 0;
}
