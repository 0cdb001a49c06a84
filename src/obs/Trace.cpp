//===- obs/Trace.cpp - Structured parse-event tracing -----------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "robust/FaultInjection.h"

#include <ostream>

using namespace costar;
using namespace costar::obs;

const char *costar::obs::eventKindName(EventKind K) {
  switch (K) {
  case EventKind::ParseBegin:
    return "parse_begin";
  case EventKind::ParseEnd:
    return "parse_end";
  case EventKind::Consume:
    return "consume";
  case EventKind::Push:
    return "push";
  case EventKind::Pop:
    return "pop";
  case EventKind::PredictEnter:
    return "predict_enter";
  case EventKind::PredictResolve:
    return "predict_resolve";
  case EventKind::SllCacheHit:
    return "sll_cache_hit";
  case EventKind::SllCacheMiss:
    return "sll_cache_miss";
  case EventKind::SllCacheConflict:
    return "sll_cache_conflict";
  case EventKind::LlFallback:
    return "ll_fallback";
  case EventKind::AmbigDetected:
    return "ambig_detected";
  case EventKind::CachePublish:
    return "cache_publish";
  case EventKind::CacheAdopt:
    return "cache_adopt";
  case EventKind::BudgetExceeded:
    return "budget_exceeded";
  case EventKind::FaultInjected:
    return "fault_injected";
  case EventKind::BackendDowngrade:
    return "backend_downgrade";
  }
  return "unknown";
}

std::string costar::obs::toJsonl(const TraceEvent &E) {
  std::string Out;
  Out.reserve(96);
  Out += "{\"ev\":\"";
  Out += eventKindName(E.Kind);
  Out += "\",\"t\":";
  Out += std::to_string(E.Thread);
  Out += ",\"w\":";
  Out += std::to_string(E.Word);
  Out += ",\"a\":";
  Out += std::to_string(E.A);
  Out += ",\"b\":";
  Out += std::to_string(E.B);
  Out += ",\"v\":";
  Out += std::to_string(E.Value);
  Out += ",\"pos\":";
  Out += std::to_string(E.Pos);
  Out += "}";
  return Out;
}

std::vector<TraceEvent> RingBufferTracer::events() const {
  std::vector<TraceEvent> Out;
  Out.reserve(Buf.size());
  if (Buf.size() < Capacity) {
    Out = Buf;
    return Out;
  }
  // Full ring: oldest event sits at Head.
  for (size_t I = 0; I < Buf.size(); ++I)
    Out.push_back(Buf[(Head + I) % Capacity]);
  return Out;
}

void JsonlTracer::emitImpl(const TraceEvent &E) {
  if (robust::faultFires(robust::FaultSite::TraceSinkWrite)) {
    ++WriteFailures;
    return;
  }
  Out << toJsonl(E) << '\n';
  if (!Out) {
    // The stream rejected the write (full disk, closed pipe, bad
    // streambuf). Clear the error so later events get their own chance —
    // a transient failure should lose one line, not the rest of the run.
    ++WriteFailures;
    Out.clear();
    return;
  }
  ++Lines;
}

void JsonlTracer::flush() { Out.flush(); }

void CheckingTracer::emitImpl(const TraceEvent &E) {
  if (!Mismatch.empty())
    return;
  if (Next >= Expected.size()) {
    Mismatch = "replay emitted extra event #" + std::to_string(Next) + ": " +
               toJsonl(E);
    return;
  }
  const TraceEvent &Want = Expected[Next];
  if (!sameFact(Want, E)) {
    Mismatch = "replay diverged at event #" + std::to_string(Next) +
               ": expected " + toJsonl(Want) + ", got " + toJsonl(E);
    return;
  }
  ++Next;
}

std::string CheckingTracer::report() const {
  if (!Mismatch.empty())
    return Mismatch;
  if (Next != Expected.size())
    return "replay stopped after " + std::to_string(Next) + " of " +
           std::to_string(Expected.size()) + " recorded events";
  return {};
}
