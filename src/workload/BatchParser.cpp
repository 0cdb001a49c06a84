//===- workload/BatchParser.cpp - Multi-threaded corpus parsing -------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "workload/BatchParser.h"

#include "service/Service.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

using namespace costar;
using namespace costar::workload;

namespace {

/// Classifies the per-word results into the batch counters and builds the
/// quarantine list (in corpus order, since \p Buf is walked in order).
void classifyResults(std::vector<std::optional<ParseResult>> &Buf,
                     BatchResult &R) {
  R.Results.reserve(Buf.size());
  for (size_t I = 0; I < Buf.size(); ++I) {
    std::optional<ParseResult> &Res = Buf[I];
    assert(Res && "batch worker skipped a word");
    switch (Res->kind()) {
    case ParseResult::Kind::Unique:
    case ParseResult::Kind::Ambig:
      ++R.Accepted;
      break;
    case ParseResult::Kind::Reject:
      ++R.Rejected;
      break;
    case ParseResult::Kind::Error:
      ++R.Errors;
      break;
    case ParseResult::Kind::BudgetExceeded:
      ++R.BudgetExceeded;
      R.Quarantined.push_back(
          BatchResult::QuarantineEntry{I, Res->budget().Reason});
      break;
    }
    R.Results.push_back(std::move(*Res));
  }
}

} // namespace

/// The batch runs on the parse-service runtime: one grammar, channels
/// sized to the corpus, every service refusal mechanism disabled. The
/// runtime contributes its worker model (SPSC channels, per-life fault
/// injectors, publish/adopt cache exchange, graceful drain); the
/// semantics stay a batch's.
BatchResult BatchParser::parseAll(const std::vector<Word> &Corpus,
                                  const BatchOptions &Opts) const {
  unsigned Threads = Opts.Threads;
  if (Threads == 0)
    Threads = std::max(1u, std::thread::hardware_concurrency());
  Threads = std::max(1u, std::min<unsigned>(
                             Threads, Corpus.empty() ? 1 : Corpus.size()));

  service::ServiceOptions SO;
  SO.Workers = Threads;
  // Batch runs share machines with other work, so workers do not pin.
  SO.PinWorkers = false;
  SO.QueueCapacity = std::max<size_t>(Corpus.size(), 2);
  SO.Parse = Opts.Parse;
  SO.ShareCache = Opts.ShareCache;
  SO.PublishInterval = Opts.PublishInterval;
  SO.DegradeOnError = Opts.DegradeOnError;
  SO.Retry.MaxRetries = 0; // batch parity: an Error is final, no retries
  SO.BreakerThreshold = 0;
  SO.AdmitByDeadline = false;
  SO.ShedBestEffortAt = 2.0; // shedding off: every word must be served
  SO.ShedBatchAt = 2.0;
  SO.CollectMetrics = Opts.CollectMetrics;
  SO.CollectTrace = Opts.CollectTrace;
  SO.TraceCapacityPerThread = Opts.TraceCapacityPerThread;
  SO.Faults = Opts.Faults;

  service::ParseService S(SO);
  uint32_t Gid = S.addGrammar(G, Start, &Analysis, &Tables);
  S.start();

  std::vector<std::optional<ParseResult>> Buf(Corpus.size());
  std::vector<Machine::Stats> PerWord(Corpus.size());
  std::vector<uint8_t> Downgraded(Corpus.size(), 0);
  // Keep at most two words per worker in flight. The router sends each
  // word to the worker with the least outstanding work, so a bounded
  // window hands out words as workers free up; queueing the whole corpus
  // up front would fix the split by token count alone, and one
  // cold-cache word can cost many times its share.
  const size_t Window = 2 * size_t(Threads);
  std::mutex InFlightLock;
  std::condition_variable Freed;
  size_t InFlight = 0;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    {
      std::unique_lock<std::mutex> Lock(InFlightLock);
      Freed.wait(Lock, [&] { return InFlight < Window; });
      ++InFlight;
    }
    service::Request Req;
    Req.Id = I;
    Req.GrammarId = Gid;
    Req.Input = &Corpus[I];
    Req.Class = service::Priority::Batch;
    service::ResponseStatus St = S.submit(
        std::move(Req),
        // Workers write disjoint indices; drain()'s join orders them
        // before the reads below.
        [&, I](service::Response &&Resp) {
          if (Resp.Result)
            Buf[I] = std::move(*Resp.Result);
          PerWord[I] = Resp.Stats;
          Downgraded[I] = Resp.Downgraded ? 1 : 0;
          {
            std::lock_guard<std::mutex> Lock(InFlightLock);
            --InFlight;
          }
          Freed.notify_one();
        });
    assert(St == service::ResponseStatus::Done && "batch submit refused");
    (void)St;
  }
  S.drain();

  BatchResult R;
  classifyResults(Buf, R);
  for (const Machine::Stats &St : PerWord)
    R.Aggregate.accumulate(St);
  for (uint8_t D : Downgraded)
    R.Downgraded += D;
  if (Opts.ShareCache)
    R.SharedCacheStates = S.sharedCacheStates(Gid);
  R.Trace = S.report().Trace;
  R.TraceDropped = S.report().TraceDropped;
  if (Opts.CollectMetrics)
    R.Metrics.merge(S.report().Metrics);
  return R;
}

std::string BatchResult::summary() const {
  std::string S;
  S += "accepted=" + std::to_string(Accepted);
  S += " rejected=" + std::to_string(Rejected);
  S += " errors=" + std::to_string(Errors);
  S += " budget_exceeded=" + std::to_string(BudgetExceeded);
  S += " downgraded=" + std::to_string(Downgraded);
  S += " quarantined=" + std::to_string(Quarantined.size());
  if (!Quarantined.empty()) {
    // Deterministic regardless of the order workers finished in: list the
    // quarantined words sorted by corpus index.
    std::vector<QuarantineEntry> Sorted = Quarantined;
    std::stable_sort(Sorted.begin(), Sorted.end(),
                     [](const QuarantineEntry &X, const QuarantineEntry &Y) {
                       return X.WordIndex < Y.WordIndex;
                     });
    S += " [";
    for (size_t I = 0; I < Sorted.size(); ++I) {
      if (I)
        S += ",";
      S += std::to_string(Sorted[I].WordIndex);
      S += ":";
      S += robust::budgetReasonName(Sorted[I].Reason);
    }
    S += "]";
  }
  return S;
}
