//===- lexer/ScanTable.cpp - Batched DFA scanning -----------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lexer/ScanTable.h"

#include "adt/Prefetch.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>

using namespace costar;
using namespace costar::lexer;

//===----------------------------------------------------------------------===//
// Backend resolution
//===----------------------------------------------------------------------===//

LexBackend costar::lexer::resolveLexBackend(LexBackend Requested) {
  return Requested == LexBackend::ScalarPaperFaithful
             ? LexBackend::ScalarPaperFaithful
             : LexBackend::Swar;
}

//===----------------------------------------------------------------------===//
// Table construction
//===----------------------------------------------------------------------===//

ScanTable::ScanTable(const Dfa &D) {
  uint32_t RealStates = static_cast<uint32_t>(D.numStates());
  NumStates = RealStates + 1; // + synthetic dead state
  uint32_t DeadIdx = RealStates;

  // Byte equivalence classes by transition-column signature: two bytes land
  // in the same class iff every state sends them to the same successor.
  std::map<std::vector<int32_t>, uint8_t> Classes;
  for (uint32_t C = 0; C < 256; ++C) {
    std::vector<int32_t> Sig(RealStates);
    for (uint32_t S = 0; S < RealStates; ++S)
      Sig[S] = D.next(S, static_cast<unsigned char>(C));
    auto [It, Inserted] =
        Classes.emplace(std::move(Sig), static_cast<uint8_t>(Classes.size()));
    ClassOf[C] = It->second;
  }
  NumClasses = static_cast<uint32_t>(Classes.size());

  DeadScaled = DeadIdx * NumClasses;
  StartScaled = D.start() * NumClasses;

  // Flat interleaved table with pre-scaled successors; the dead state is a
  // real row that self-loops on every class, so batched loops can run
  // through it without per-byte liveness branches.
  Next.assign(static_cast<size_t>(NumStates) * NumClasses,
              static_cast<int32_t>(DeadScaled));
  AcceptScaled.assign(static_cast<size_t>(NumStates) * NumClasses, -1);
  for (uint32_t S = 0; S < RealStates; ++S) {
    AcceptScaled[static_cast<size_t>(S) * NumClasses] = D.acceptRule(S);
    const int32_t *Row = D.row(S);
    for (uint32_t C = 0; C < 256; ++C) {
      int32_t T = Row[C];
      Next[static_cast<size_t>(S) * NumClasses + ClassOf[C]] =
          T == Dfa::DeadState ? static_cast<int32_t>(DeadScaled)
                              : T * static_cast<int32_t>(NumClasses);
    }
  }

  // Per-state self-loop class masks (the run accelerator's data). A class
  // count above 64 cannot be a bitmask in one word; leaving the masks zero
  // just disables run batching without affecting results.
  SelfMask.assign(static_cast<size_t>(NumStates) * NumClasses, 0);
  if (NumClasses <= 64) {
    for (uint32_t S = 0; S < RealStates; ++S) {
      uint64_t M = 0;
      size_t Base = static_cast<size_t>(S) * NumClasses;
      for (uint32_t C = 0; C < NumClasses; ++C)
        if (Next[Base + C] == static_cast<int32_t>(Base))
          M |= uint64_t{1} << C;
      SelfMask[Base] = M;
    }
  }

  // Start-state pair dispatch: one load fuses the first two transitions.
  // Encodable whenever scaled states fit in 16 bits and rules in 7; when
  // not, the empty table just means matchers step byte-at-a-time.
  int32_t MaxRule = -1;
  for (int32_t R : AcceptScaled)
    MaxRule = std::max(MaxRule, R);
  if (static_cast<size_t>(NumStates) * NumClasses <= 0xFFFF &&
      MaxRule <= 125) {
    Pair.assign(static_cast<size_t>(NumClasses) * NumClasses, 0);
    for (uint32_t C0 = 0; C0 < NumClasses; ++C0) {
      int32_t S1 = Next[StartScaled + C0];
      for (uint32_t C1 = 0; C1 < NumClasses; ++C1) {
        uint32_t E;
        if (S1 == static_cast<int32_t>(DeadScaled)) {
          E = DeadScaled | (1u << 16);
        } else {
          int32_t R1 = AcceptScaled[S1];
          int32_t S2 = Next[S1 + C1];
          uint32_t DeadAt = S2 == static_cast<int32_t>(DeadScaled) ? 2 : 0;
          int32_t R2 = AcceptScaled[S2];
          E = static_cast<uint32_t>(S2) | (DeadAt << 16) |
              (static_cast<uint32_t>(R1 + 1) << 18) |
              (static_cast<uint32_t>(R2 + 1) << 25);
        }
        Pair[static_cast<size_t>(C0) * NumClasses + C1] = E;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Match cores
//===----------------------------------------------------------------------===//
//
// The matchers are file-static cores over a context of hoisted table
// pointers. The member functions are thin wrappers: matchSwar runs one
// core call, and munchSwar loops the core over a whole buffer so the
// per-call setup is paid once per buffer instead of once per token.

namespace {

struct FlatCtx {
  const uint8_t *Cls;
  const int32_t *Nx;
  const int32_t *Ac;
  const uint64_t *Self;
  const uint32_t *PairTab; // null when pair dispatch is disabled
  uint32_t NC;
  int32_t Dead;
  int32_t Start;
};

enum class PairOutcome : uint8_t {
  Skip,     // no pair table or < 2 bytes left — step byte-at-a-time
  Done,     // the walk died within the first two bytes; result is final
  Continue, // two bytes consumed; resume stepping from S at I
};

// One load resolves the first two bytes — the whole match for the
// punctuation-sized tokens that dominate real token streams.
inline PairOutcome pairDispatch(const FlatCtx &C, const char *Data,
                                size_t Size, size_t Pos, int32_t &S, size_t &I,
                                int32_t &BestRule, size_t &BestLen) {
  if (!C.PairTab || I + 2 > Size)
    return PairOutcome::Skip;
  uint32_t E =
      C.PairTab[static_cast<size_t>(C.Cls[static_cast<uint8_t>(Data[I])]) *
                    C.NC +
                C.Cls[static_cast<uint8_t>(Data[I + 1])]];
  uint32_t DeadAt = (E >> 16) & 3;
  if (DeadAt == 1)
    return PairOutcome::Done;
  int32_t R1 = static_cast<int32_t>((E >> 18) & 0x7F) - 1;
  if (DeadAt == 2) {
    if (R1 >= 0) {
      BestRule = R1;
      BestLen = 1;
    }
    return PairOutcome::Done;
  }
  int32_t R2 = static_cast<int32_t>((E >> 25) & 0x7F) - 1;
  S = static_cast<int32_t>(E & 0xFFFF);
  I += 2;
  if (R2 >= 0) {
    BestRule = R2;
    BestLen = 2;
  } else if (R1 >= 0) {
    BestRule = R1;
    BestLen = 1;
  }
  return PairOutcome::Continue;
}

// Tests 8 input bytes against state mask \p M with fully independent
// per-byte class probes; bit K of the result is set iff byte I+K stays in
// the run. Requires I + 8 <= Size.
inline unsigned swarProbe8(const FlatCtx &C, uint64_t M, const char *Data,
                           size_t I) {
  uint64_t W;
  std::memcpy(&W, Data + I, 8);
  adt::prefetchRead(Data + I + 64, 0);
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<unsigned>((M >> C.Cls[W & 0xFF]) & 1) |
           static_cast<unsigned>((M >> C.Cls[(W >> 8) & 0xFF]) & 1) << 1 |
           static_cast<unsigned>((M >> C.Cls[(W >> 16) & 0xFF]) & 1) << 2 |
           static_cast<unsigned>((M >> C.Cls[(W >> 24) & 0xFF]) & 1) << 3 |
           static_cast<unsigned>((M >> C.Cls[(W >> 32) & 0xFF]) & 1) << 4 |
           static_cast<unsigned>((M >> C.Cls[(W >> 40) & 0xFF]) & 1) << 5 |
           static_cast<unsigned>((M >> C.Cls[(W >> 48) & 0xFF]) & 1) << 6 |
           static_cast<unsigned>((M >> C.Cls[(W >> 56) & 0xFF]) & 1) << 7;
  } else {
    unsigned Stay = 0;
    for (unsigned K = 0; K < 8; ++K)
      Stay |= static_cast<unsigned>(
                  (M >> C.Cls[static_cast<uint8_t>(Data[I + K])]) & 1)
              << K;
    return Stay;
  }
}

// Advances past state \p S's self-loop run starting at \p I and returns
// the new position. While the state is invariant the transition chain is
// gone: whether a byte extends the run is one bit in this state's class
// mask, so 8 input bytes are tested per load with fully independent probes
// and a single all-stay branch. String interiors, whitespace, comments,
// and identifier/number tails all live here.
inline size_t swarRun(const FlatCtx &C, int32_t S, const char *Data,
                      size_t Size, size_t I) {
  uint64_t M = C.Self[S];
  // One-byte pre-check: a state that can self-loop often still gets a
  // zero-length run (keywords, two-digit numbers) — bail on one load
  // instead of a full 8-byte probe.
  if (I < Size && !((M >> C.Cls[static_cast<uint8_t>(Data[I])]) & 1))
    return I;
  while (I + 8 <= Size) {
    unsigned Stay = swarProbe8(C, M, Data, I);
    if (Stay == 0xFF) {
      I += 8;
      continue;
    }
    I += static_cast<unsigned>(std::countr_one(Stay));
    return I;
  }
  while (I < Size && ((M >> C.Cls[static_cast<uint8_t>(Data[I])]) & 1))
    ++I;
  return I;
}

// Continues a maximal-munch walk from state \p S at absolute offset \p I
// (SkipStep true when S was just entered by pair dispatch and its accept
// is already folded in): branchy per-byte steps with branchless (cmov)
// accept tracking, handing off to swarRun whenever the current state has
// self-loops. BestRule/BestEnd are updated in place; returns on death or
// input end.
inline void walkTail(const FlatCtx &C, const char *Data, size_t Size,
                     int32_t S, size_t I, bool SkipStep, int32_t &BestRule,
                     size_t &BestEnd) {
  while (I < Size) {
    if (!SkipStep) {
      S = C.Nx[S + C.Cls[static_cast<uint8_t>(Data[I])]];
      if (S == C.Dead)
        return;
      ++I;
      int32_t R = C.Ac[S];
      bool Hit = R >= 0;
      BestRule = Hit ? R : BestRule;
      BestEnd = Hit ? I : BestEnd;
    }
    SkipStep = false;

    if (C.Self[S] == 0)
      continue;
    size_t RunStart = I;
    I = swarRun(C, S, Data, Size, I);
    // Every prefix of a self-loop run re-enters the same state, so if it
    // accepts, the longest match simply extends to the run's end.
    if (I != RunStart && C.Ac[S] >= 0) {
      BestRule = C.Ac[S];
      BestEnd = I;
    }
  }
}

// Single-match core: pair dispatch + walkTail.
inline ScanTable::Match core(const FlatCtx &C, const char *Data, size_t Size,
                             size_t Pos) {
  int32_t S = C.Start;
  int32_t BestRule = -1;
  size_t BestLen = 0;
  size_t I = Pos;

  PairOutcome P = pairDispatch(C, Data, Size, Pos, S, I, BestRule, BestLen);
  if (P != PairOutcome::Done) {
    size_t BestEnd = Pos + BestLen;
    walkTail(C, Data, Size, S, I, P == PairOutcome::Continue, BestRule,
             BestEnd);
    BestLen = BestEnd - Pos;
  }
  return ScanTable::Match{BestRule, BestLen};
}

// Output cursor: spans are written through a raw pointer into a small
// stack buffer (no per-token capacity branch, no value-initialization)
// and flushed to the vector in bulk — one memcpy-sized insert per 512
// tokens instead of a checked push per token.
class SpanSink {
  std::vector<ScanTable::TokenSpan> &Out;
  ScanTable::TokenSpan Buf[512];
  ScanTable::TokenSpan *Cur = Buf;

public:
  explicit SpanSink(std::vector<ScanTable::TokenSpan> &Out) : Out(Out) {}
  ~SpanSink() { flush(); }

  inline void emit(int32_t Rule, uint32_t Length) {
    *Cur++ = ScanTable::TokenSpan{Rule, Length};
    if (Cur == Buf + 512)
      flush();
  }

  void flush() {
    Out.insert(Out.end(), static_cast<const ScanTable::TokenSpan *>(Buf),
               static_cast<const ScanTable::TokenSpan *>(Cur));
    Cur = Buf;
  }
};

// Fused bulk core: the token loop and the byte loop are one loop, so a
// token costs no call, no re-dispatch, and — in the dominant case of a
// 1-byte token, which the pair table resolves with a single load — no
// unpredictable branch beyond the one that classifies its outcome. This
// is where the munch API earns its keep: real token streams average a
// few bytes per token, so per-token control flow is the lexer's real
// bottleneck, not the transition chain.
inline size_t munchCore(const FlatCtx &C, const char *Data, size_t Size,
                        std::vector<ScanTable::TokenSpan> &Out) {
  SpanSink Sink(Out);
  size_t Pos = 0;
  if (C.PairTab) {
    while (Pos + 2 <= Size) {
      uint32_t E =
          C.PairTab[static_cast<size_t>(
                        C.Cls[static_cast<uint8_t>(Data[Pos])]) *
                        C.NC +
                    C.Cls[static_cast<uint8_t>(Data[Pos + 1])]];
      uint32_t DeadAt = (E >> 16) & 3;
      int32_t R1 = static_cast<int32_t>((E >> 18) & 0x7F) - 1;
      if (DeadAt == 2) {
        // Died on byte 2: the token is exactly byte 1 (or a lex error).
        // Consecutive 1-byte tokens keep Pos free of any data dependence
        // on table loads, so these iterations overlap in the pipeline.
        if (R1 < 0)
          return Pos;
        Sink.emit(R1, 1);
        Pos += 1;
        continue;
      }
      if (DeadAt == 1)
        return Pos; // no rule matches the first byte
      // Alive after two bytes: fold the pair's accepts, then walk on.
      int32_t R2 = static_cast<int32_t>((E >> 25) & 0x7F) - 1;
      int32_t BestRule = R2 >= 0 ? R2 : R1;
      size_t BestEnd = R2 >= 0 ? Pos + 2 : (R1 >= 0 ? Pos + 1 : Pos);
      walkTail(C, Data, Size, static_cast<int32_t>(E & 0xFFFF), Pos + 2,
               /*SkipStep=*/true, BestRule, BestEnd);
      if (BestEnd == Pos)
        return Pos;
      Sink.emit(BestRule, static_cast<uint32_t>(BestEnd - Pos));
      Pos = BestEnd;
    }
  }
  // Tail (and the no-pair-table shape): per-token core calls.
  while (Pos < Size) {
    ScanTable::Match M = core(C, Data, Size, Pos);
    if (M.Rule < 0 || M.Length == 0)
      break;
    Sink.emit(M.Rule, static_cast<uint32_t>(M.Length));
    Pos += M.Length;
  }
  return Pos;
}

} // namespace

ScanTable::Match ScanTable::matchSwar(const char *Data, size_t Size,
                                      size_t Pos) const {
  FlatCtx C{ClassOf.data(), Next.data(),
            AcceptScaled.data(), SelfMask.data(),
            Pair.empty() ? nullptr : Pair.data(), NumClasses,
            static_cast<int32_t>(DeadScaled), static_cast<int32_t>(StartScaled)};
  return core(C, Data, Size, Pos);
}

size_t ScanTable::munchSwar(const char *Data, size_t Size,
                            std::vector<TokenSpan> &Out) const {
  FlatCtx C{ClassOf.data(), Next.data(),
            AcceptScaled.data(), SelfMask.data(),
            Pair.empty() ? nullptr : Pair.data(), NumClasses,
            static_cast<int32_t>(DeadScaled), static_cast<int32_t>(StartScaled)};
  return munchCore(C, Data, Size, Out);
}

//===----------------------------------------------------------------------===//
// Dfa serialization (warm-start snapshots)
//===----------------------------------------------------------------------===//

void costar::lexer::serializeDfa(const Dfa &D, std::vector<uint32_t> &Out) {
  uint32_t NumStates = static_cast<uint32_t>(D.numStates());
  Out.reserve(Out.size() + 2 + NumStates +
              static_cast<size_t>(NumStates) * Dfa::AlphabetSize);
  Out.push_back(NumStates);
  Out.push_back(D.start());
  for (uint32_t S = 0; S < NumStates; ++S)
    Out.push_back(static_cast<uint32_t>(D.acceptRule(S)));
  for (uint32_t S = 0; S < NumStates; ++S) {
    const int32_t *Row = D.row(S);
    for (uint32_t C = 0; C < Dfa::AlphabetSize; ++C)
      Out.push_back(static_cast<uint32_t>(Row[C]));
  }
}

bool costar::lexer::deserializeDfa(std::span<const uint32_t> Words, Dfa &Out) {
  if (Words.size() < 2)
    return false;
  uint32_t NumStates = Words[0];
  uint32_t Start = Words[1];
  // Reject absurd state counts before sizing anything: the transition
  // table is numStates * 256 words, so an attacker-controlled count must
  // not be allowed to drive a multi-gigabyte allocation.
  size_t Expected =
      2 + static_cast<size_t>(NumStates) * (1 + Dfa::AlphabetSize);
  if (NumStates == 0 || Words.size() != Expected || Start >= NumStates)
    return false;
  Dfa D;
  D.reserveStates(NumStates);
  for (uint32_t S = 0; S < NumStates; ++S) {
    int32_t Accept = static_cast<int32_t>(Words[2 + S]);
    if (Accept < Dfa::NoRule)
      return false;
    D.addState(Accept);
  }
  const uint32_t *Trans = Words.data() + 2 + NumStates;
  for (uint32_t S = 0; S < NumStates; ++S)
    for (uint32_t C = 0; C < Dfa::AlphabetSize; ++C) {
      int32_t To =
          static_cast<int32_t>(Trans[static_cast<size_t>(S) * Dfa::AlphabetSize + C]);
      if (To < Dfa::DeadState || To >= static_cast<int32_t>(NumStates))
        return false;
      if (To != Dfa::DeadState)
        D.setTransition(S, static_cast<unsigned char>(C), To);
    }
  D.setStart(Start);
  Out = std::move(D);
  return true;
}
