//===- obs/Metrics.h - Named counters and histograms -----------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A registry of named counters and histograms for per-parse
/// observability. Machine::run() publishes its per-parse deltas here when
/// ParseOptions::Metrics is set (steps, consumes, pushes, returns,
/// prediction and cache activity, result kinds), superseding ad-hoc
/// aggregation of Machine::Stats: callers that used to hand-sum Stats
/// structs point every parse at one registry (or one per thread, merged —
/// BatchParser does exactly that) and read totals and distributions out.
///
/// Registries are deliberately not thread-safe: the intended pattern is
/// one registry per thread, merged at publish time, which keeps the parse
/// path free of atomics. All output (toJson) is deterministically ordered.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_OBS_METRICS_H
#define COSTAR_OBS_METRICS_H

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace costar {
namespace obs {

/// A log2-bucketed histogram of uint64 samples: bucket i counts values
/// whose bit width is i (bucket 0 counts zeros), so the range 1..2^63
/// needs 65 fixed buckets and record() is branch-light. Tracks exact
/// count/sum/min/max alongside the buckets.
struct Histogram {
  static constexpr size_t NumBuckets = 65;

  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = UINT64_MAX;
  uint64_t Max = 0;
  std::array<uint64_t, NumBuckets> Buckets{};

  static size_t bucketOf(uint64_t V);

  void record(uint64_t V);
  void merge(const Histogram &Other);

  double mean() const { return Count ? double(Sum) / double(Count) : 0.0; }

  /// Estimated value at quantile \p Q in [0, 1] (0.5 = median, 0.99 =
  /// p99). Walks the log2 buckets to the one containing the Q-th sample
  /// and interpolates linearly within it, clamped to the exact [Min, Max]
  /// observed — so a single-bucket histogram answers exactly and wide
  /// buckets answer within one power of two. Returns 0 on an empty
  /// histogram. Tail quantiles of latency histograms (p99/p999) are the
  /// intended use; bench_service reports exact percentiles from raw
  /// samples and uses this only as a cross-check.
  double quantile(double Q) const;
};

/// Named counters and histograms. Names are dot-separated paths by
/// convention ("machine.steps", "cache.hits"); see Machine.cpp for the
/// names the core publishes.
class MetricsRegistry {
  std::map<std::string, uint64_t, std::less<>> Counters;
  std::map<std::string, Histogram, std::less<>> Histograms;

public:
  /// Adds \p Delta to counter \p Name (creating it at zero).
  void add(std::string_view Name, uint64_t Delta = 1);

  /// Records \p Value into histogram \p Name (creating it empty).
  void record(std::string_view Name, uint64_t Value);

  /// Current value of counter \p Name, or 0 if it was never touched.
  uint64_t counter(std::string_view Name) const;

  /// Histogram \p Name, or nullptr if it was never touched.
  const Histogram *histogram(std::string_view Name) const;

  /// Accumulates every counter and histogram of \p Other into this
  /// registry (the per-thread merge step).
  void merge(const MetricsRegistry &Other);

  bool empty() const { return Counters.empty() && Histograms.empty(); }
  void clear() {
    Counters.clear();
    Histograms.clear();
  }

  const std::map<std::string, uint64_t, std::less<>> &counters() const {
    return Counters;
  }
  const std::map<std::string, Histogram, std::less<>> &histograms() const {
    return Histograms;
  }

  /// Deterministic JSON rendering (keys sorted; histograms as
  /// {count,sum,min,max,mean}); suitable for BENCH_*.json reports.
  std::string toJson() const;
};

} // namespace obs
} // namespace costar

#endif // COSTAR_OBS_METRICS_H
