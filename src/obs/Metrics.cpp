//===- obs/Metrics.cpp - Named counters and histograms ----------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <algorithm>
#include <bit>

using namespace costar;
using namespace costar::obs;

size_t Histogram::bucketOf(uint64_t V) {
  return V == 0 ? 0 : static_cast<size_t>(std::bit_width(V));
}

void Histogram::record(uint64_t V) {
  ++Count;
  Sum += V;
  if (V < Min)
    Min = V;
  if (V > Max)
    Max = V;
  ++Buckets[bucketOf(V)];
}

void Histogram::merge(const Histogram &Other) {
  Count += Other.Count;
  Sum += Other.Sum;
  if (Other.Min < Min)
    Min = Other.Min;
  if (Other.Max > Max)
    Max = Other.Max;
  for (size_t I = 0; I < NumBuckets; ++I)
    Buckets[I] += Other.Buckets[I];
}

double Histogram::quantile(double Q) const {
  if (Count == 0)
    return 0.0;
  if (Q <= 0.0)
    return double(Min);
  if (Q >= 1.0)
    return double(Max);
  // The (1-based) rank of the requested sample, then the bucket holding it.
  double Rank = Q * double(Count);
  uint64_t Seen = 0;
  for (size_t I = 0; I < NumBuckets; ++I) {
    if (Buckets[I] == 0)
      continue;
    if (double(Seen + Buckets[I]) < Rank) {
      Seen += Buckets[I];
      continue;
    }
    // Bucket I holds values in [2^(I-1), 2^I) (bucket 0 holds zeros).
    // Interpolate by the rank's position within the bucket.
    if (I == 0)
      return 0.0;
    double Lo = I == 1 ? 1.0 : double(uint64_t(1) << (I - 1));
    double Hi = double(uint64_t(1) << std::min<size_t>(I, 63));
    double Frac = (Rank - double(Seen)) / double(Buckets[I]);
    double V = Lo + Frac * (Hi - Lo);
    // Clamp to the exact observed range: the extreme buckets may be far
    // wider than the data in them.
    return std::min(std::max(V, double(Min)), double(Max));
  }
  return double(Max);
}

void MetricsRegistry::add(std::string_view Name, uint64_t Delta) {
  auto It = Counters.find(Name);
  if (It == Counters.end())
    Counters.emplace(std::string(Name), Delta);
  else
    It->second += Delta;
}

void MetricsRegistry::record(std::string_view Name, uint64_t Value) {
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    It = Histograms.emplace(std::string(Name), Histogram{}).first;
  It->second.record(Value);
}

uint64_t MetricsRegistry::counter(std::string_view Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

const Histogram *MetricsRegistry::histogram(std::string_view Name) const {
  auto It = Histograms.find(Name);
  return It == Histograms.end() ? nullptr : &It->second;
}

void MetricsRegistry::merge(const MetricsRegistry &Other) {
  for (const auto &[Name, Value] : Other.Counters)
    add(Name, Value);
  for (const auto &[Name, H] : Other.Histograms) {
    auto It = Histograms.find(Name);
    if (It == Histograms.end())
      Histograms.emplace(Name, H);
    else
      It->second.merge(H);
  }
}

std::string MetricsRegistry::toJson() const {
  std::string Out = "{\"counters\":{";
  bool First = true;
  for (const auto &[Name, Value] : Counters) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\"" + Name + "\":" + std::to_string(Value);
  }
  Out += "},\"histograms\":{";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\"" + Name + "\":{\"count\":" + std::to_string(H.Count) +
           ",\"sum\":" + std::to_string(H.Sum) +
           ",\"min\":" + std::to_string(H.Count ? H.Min : 0) +
           ",\"max\":" + std::to_string(H.Max) +
           ",\"mean\":" + std::to_string(H.mean()) + "}";
  }
  Out += "}}";
  return Out;
}
