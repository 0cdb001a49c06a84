//===- obs/Trace.h - Structured parse-event tracing ------------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A low-overhead structured event tracer for the parsing core. The
/// paper's evaluation (Figures 8-11) attributes runtime to prediction,
/// cache behavior, and stack operations; this layer makes those
/// attributions available on every parse instead of only inside bench
/// binaries, and doubles as a correctness oracle: a recorded trace replays
/// deterministically (obs::CheckingTracer, tests/obs/).
///
/// Design constraints, in order:
///
///  1. Null sink is (near-)zero cost. Machine and Prediction emit through
///     `if (T) T->emit(...)`; `emit` is a non-virtual inline that reads one
///     byte and branches before constructing the event, so a NullTracer
///     costs one predicted branch per event site and a null pointer costs
///     only the pointer test (bench_trace_overhead pins this below 3% on
///     the Python Figure 9 workload).
///
///  2. Traces are deterministic. Events carry no timestamps or addresses,
///     only machine-state facts (token position, ids, counters), so two
///     runs of the same (grammar, word, options) produce byte-identical
///     JSONL — a property test, and the foundation of trace replay.
///
///  3. No dependency on the parsing core. obs/ sits below core/ in the
///     library graph; events speak in raw ids (nonterminal, production,
///     DFA state) that callers interpret against their Grammar.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_OBS_TRACE_H
#define COSTAR_OBS_TRACE_H

#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace costar {
namespace obs {

/// What happened. Field meanings per kind are documented on TraceEvent.
enum class EventKind : uint8_t {
  /// Machine::run() started. A = start nonterminal, Value = word length.
  ParseBegin,
  /// Machine::run() finished. A = ParseResult kind (0 Unique, 1 Ambig,
  /// 2 Reject, 3 Error), Value = total machine steps.
  ParseEnd,
  /// consume step. A = terminal id; Pos = token index consumed.
  Consume,
  /// push step (prediction resolved to a right-hand side). A = decision
  /// nonterminal, B = chosen production.
  Push,
  /// return step. A = reduced nonterminal, B = its production.
  Pop,
  /// adaptivePredict / llPredict entered. A = decision nonterminal,
  /// Value = machine stack depth.
  PredictEnter,
  /// Prediction resolved. A = decision nonterminal, B = chosen production
  /// (UINT32_MAX when none), Value = PredictionResult kind (0 Unique,
  /// 1 Ambig, 2 Reject, 3 Error).
  PredictResolve,
  /// SLL DFA cache hit. A = DFA state reached, B = terminal consumed by
  /// the transition (UINT32_MAX for a start-state lookup).
  SllCacheHit,
  /// SLL DFA cache miss (state newly computed and interned). Fields as
  /// for SllCacheHit.
  SllCacheMiss,
  /// SLL reported Ambig: the stack overapproximation kept >1 right-hand
  /// side alive. A = decision nonterminal, B = the minimal surviving
  /// production. Always followed by LlFallback.
  SllCacheConflict,
  /// Prediction restarted in LL mode. A = decision nonterminal.
  LlFallback,
  /// Genuine input ambiguity detected (LL-mode Ambig); the machine's
  /// uniqueness flag flips. A = decision nonterminal, B = production.
  AmbigDetected,
  /// A warmed cache was offered to a SharedSllCache. A = 1 if adopted,
  /// 0 if it did not cover strictly more of the DFA; Value = offered
  /// coverage (states + transitions).
  CachePublish,
  /// A batch worker adopted a warmer shared snapshot. Value = adopted
  /// coverage (states + transitions).
  CacheAdopt,
  /// A resource budget cut the parse off. A = robust::BudgetReason,
  /// Value = machine steps executed before the cutoff.
  BudgetExceeded,
  /// An injected infrastructure fault aborted the parse cleanly.
  /// A = robust::FaultSite, Value = machine steps executed.
  FaultInjected,
  /// robust::parseRobust retried a failed Hashed-backend parse on the
  /// paper-faithful AVL backend. A = 1 if the retry succeeded in producing
  /// a final (non-error) result, 0 otherwise.
  BackendDowngrade,
};

/// Returns the stable serialization name of \p K (e.g. "consume").
const char *eventKindName(EventKind K);

/// One parse event. Plain data; all fields are deterministic functions of
/// (grammar, word, options), never of wall-clock time or memory layout.
struct TraceEvent {
  EventKind Kind = EventKind::ParseBegin;
  /// Worker thread index (stamped by the sink; 0 outside BatchParser).
  uint32_t Thread = 0;
  /// Corpus word index (stamped by the sink; 0 outside BatchParser,
  /// UINT32_MAX for batch cache-exchange events between words).
  uint32_t Word = 0;
  /// Kind-specific payload (see EventKind).
  uint32_t A = 0;
  uint32_t B = 0;
  uint64_t Value = 0;
  /// Token position of the emitting machine when the event fired.
  uint64_t Pos = 0;
};

/// True when the two events describe the same parse fact, ignoring the
/// sink-stamped Thread/Word fields (used by replay and the batch
/// merge-equivalence tests).
inline bool sameFact(const TraceEvent &X, const TraceEvent &Y) {
  return X.Kind == Y.Kind && X.A == Y.A && X.B == Y.B &&
         X.Value == Y.Value && X.Pos == Y.Pos;
}

/// Serializes \p E as one JSONL line (no trailing newline): fixed key
/// order, all keys always present, so equal event sequences produce
/// byte-identical text.
std::string toJsonl(const TraceEvent &E);

/// The tracer interface. Sinks derive from it; emitters hold a
/// `Tracer *` (nullptr = tracing off entirely). The hot path is the
/// non-virtual emit(): it tests one byte and returns before building the
/// event when the sink is Null, so only active sinks pay the virtual
/// dispatch.
class Tracer {
public:
  enum class Sink : uint8_t {
    /// Discards everything; emit() never reaches the virtual call.
    Null,
    /// Any sink that actually records (ring buffer, JSONL, checker).
    Recording,
  };

private:
  Sink SinkKind;

protected:
  explicit Tracer(Sink S) : SinkKind(S) {}
  /// Receives every event when enabled(). Called from at most one thread
  /// at a time per Tracer instance (BatchParser uses one sink per worker).
  virtual void emitImpl(const TraceEvent &E) = 0;

public:
  virtual ~Tracer() = default;
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Stamped onto every event; BatchParser sets these per worker/word.
  uint32_t Thread = 0;
  uint32_t Word = 0;

  bool enabled() const { return SinkKind != Sink::Null; }

  /// Hot-path emission: one byte test, then (active sinks only) event
  /// construction and virtual dispatch.
  void emit(EventKind K, uint32_t A = 0, uint32_t B = 0, uint64_t Value = 0,
            uint64_t Pos = 0) {
    if (SinkKind == Sink::Null)
      return;
    emitImpl(TraceEvent{K, Thread, Word, A, B, Value, Pos});
  }

  /// Flushes any buffered output (JSONL sink); no-op elsewhere.
  virtual void flush() {}
};

/// The zero-cost sink: enabled() is false, so emit() returns before event
/// construction. Exists so "tracing plumbed in but discarded" is
/// expressible as a real object (bench_trace_overhead measures exactly
/// this configuration against a null pointer).
class NullTracer final : public Tracer {
public:
  NullTracer() : Tracer(Sink::Null) {}

private:
  void emitImpl(const TraceEvent &) override {}
};

/// In-memory ring buffer sink: keeps the most recent Capacity events,
/// counting (but not storing) older ones. With a capacity at least the
/// event count it is a complete in-order recording — the batch and replay
/// tests use it that way.
class RingBufferTracer final : public Tracer {
  std::vector<TraceEvent> Buf;
  size_t Capacity;
  /// Next write slot; wraps at Capacity once the buffer is full.
  size_t Head = 0;
  uint64_t Total = 0;

public:
  explicit RingBufferTracer(size_t Capacity)
      : Tracer(Sink::Recording), Capacity(Capacity == 0 ? 1 : Capacity) {
    Buf.reserve(std::min<size_t>(this->Capacity, 4096));
  }

  /// Total events emitted (including any that wrapped out of the buffer).
  uint64_t totalEmitted() const { return Total; }
  /// Events lost to wrapping.
  uint64_t dropped() const { return Total - Buf.size(); }
  size_t size() const { return Buf.size(); }

  /// The retained events, oldest first.
  std::vector<TraceEvent> events() const;

  void clear() {
    Buf.clear();
    Head = 0;
    Total = 0;
  }

private:
  void emitImpl(const TraceEvent &E) override {
    ++Total;
    if (Buf.size() < Capacity) {
      Buf.push_back(E);
      return;
    }
    Buf[Head] = E;
    Head = (Head + 1) % Capacity;
  }
};

/// JSONL sink: one event per line on a caller-owned stream. Output is
/// deterministic (fixed key order, no timestamps): two runs of the same
/// parse produce byte-identical text, which the trace-determinism
/// property test asserts.
///
/// Write failures never throw and never affect the parse: a failed write
/// (stream error, or an injected robust::FaultSite::TraceSinkWrite fault)
/// drops that event and counts it, and ok() / writeFailures() let the
/// caller check the sink's health after the run. A trace with losses is
/// degraded observability, not a degraded parse.
class JsonlTracer final : public Tracer {
  std::ostream &Out;
  uint64_t Lines = 0;
  uint64_t WriteFailures = 0;

public:
  explicit JsonlTracer(std::ostream &Out) : Tracer(Sink::Recording), Out(Out) {}

  uint64_t linesWritten() const { return Lines; }
  /// Events lost to stream errors or injected sink faults.
  uint64_t writeFailures() const { return WriteFailures; }
  /// True when every emitted event reached the stream.
  bool ok() const { return WriteFailures == 0; }
  void flush() override;

private:
  void emitImpl(const TraceEvent &E) override;
};

/// Replay oracle: compares an emitted event stream against a recorded one
/// fact-by-fact (Thread/Word stamps excluded). Driving a second machine
/// run with a CheckingTracer over the first run's recording turns the
/// tracer into an executable determinism check — any divergence in
/// prediction, cache behavior, or stack operations is caught at the first
/// differing event, not just in the final result.
class CheckingTracer final : public Tracer {
  std::span<const TraceEvent> Expected;
  size_t Next = 0;
  std::string Mismatch;

public:
  explicit CheckingTracer(std::span<const TraceEvent> Expected)
      : Tracer(Sink::Recording), Expected(Expected) {}

  /// True when every emitted event matched and the recording was fully
  /// consumed. Call after the replay run completes.
  bool ok() const { return Mismatch.empty() && Next == Expected.size(); }
  size_t eventsMatched() const { return Next; }

  /// Empty when ok(); otherwise a description of the first divergence.
  std::string report() const;

private:
  void emitImpl(const TraceEvent &E) override;
};

} // namespace obs
} // namespace costar

#endif // COSTAR_OBS_TRACE_H
