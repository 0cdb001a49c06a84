//===- lexer/ScanTable.h - Batched DFA scanning ----------------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A data-layout-optimized view of a lexer Dfa for the maximal-munch hot
/// loop. Three ideas, all layout rather than algorithm:
///
///  1. Byte equivalence classes: bytes with identical transition columns
///     share a class, shrinking each state's row from 256 entries to one
///     per class. Lexer DFAs typically have 10-30 classes, so the whole
///     transition table drops from numStates KiB to a few hundred bytes
///     of L1-resident data.
///  2. State-major interleaved rows with *pre-scaled* next entries: the
///     table stores nextState * numClasses, so the serial dependent chain
///     per byte is exactly load -> add -> load with no multiply in it.
///     Accept tags are readable at the scaled index, keeping maximal-munch
///     tracking off the critical chain (branchless selects).
///  3. Batched input on self-loop runs: lexer time concentrates in states
///     that absorb long byte runs without changing (string interiors,
///     whitespace, comments, identifier/number tails). While the state is
///     invariant the serial dependent chain disappears: whether a byte
///     keeps the run alive is one bit in a per-state class mask, so the
///     SWAR loop tests 8 input bytes per uint64_t load with fully
///     independent bit probes and a single all-stay branch, instead of 8
///     chained table loads. Tokens too short to form a run (most
///     punctuation) fall through to the branchy per-byte step at scalar
///     cost — the batching never pays for bytes that do not exist.
///
/// The batched matchers are portable C++ (no intrinsics, no -march flags)
/// and bit-identical to the byte-at-a-time scalar loop in
/// Scanner::matchAt — the randomized equivalence suite sweeps them against
/// each other.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_LEXER_SCANTABLE_H
#define COSTAR_LEXER_SCANTABLE_H

#include "lexer/Dfa.h"

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace costar {
namespace lexer {

/// Which maximal-munch matcher Scanner runs.
enum class LexBackend : uint8_t {
  /// Byte-at-a-time loop over Dfa::next, the shape of the paper-era lexer.
  ScalarPaperFaithful,
  /// Equivalence-classed flat table with SWAR 8-byte input batching (the
  /// default).
  Swar,
  /// Simd and Auto have no path of their own: they are kept so existing
  /// callers still compile, and resolveLexBackend maps both to Swar.
  Simd,
  Auto,
};

/// Maps a requested backend to the one Scanner runs: ScalarPaperFaithful
/// stays, everything else is Swar.
LexBackend resolveLexBackend(LexBackend Requested);

/// Serializes \p D as uint32 words appended to \p Out, for the warm-start
/// snapshot (src/snapshot/). The ScanTable itself is never serialized: it
/// is a pure function of the Dfa (equivalence classes, pre-scaled rows and
/// masks are all derived), so the snapshot stores the source of truth and
/// recompiles the table on load — which also keeps snapshot files
/// portable across architectures.
/// Layout: numStates, startState, numStates accept rules (int32 bit
/// pattern), numStates * 256 transitions (int32 bit pattern, DeadState
/// where undefined).
void serializeDfa(const Dfa &D, std::vector<uint32_t> &Out);

/// Rebuilds a Dfa from serializeDfa's word layout. \returns false (leaving
/// \p Out unspecified) on any malformed input: short payloads, a start
/// state or transition target outside [0, numStates), or an accept rule
/// below NoRule — so a corrupted snapshot section is rejected here rather
/// than crashing the scanner later.
bool deserializeDfa(std::span<const uint32_t> Words, Dfa &Out);

/// The flat scan table compiled from a Dfa. Immutable after construction;
/// the Dfa itself stays the source of truth for the scalar baseline.
class ScanTable {
public:
  struct Match {
    int32_t Rule = -1;
    size_t Length = 0;
  };

  /// One token from a bulk munch pass: rule index and byte length (the
  /// position is the running sum of predecessor lengths).
  struct TokenSpan {
    int32_t Rule;
    uint32_t Length;
  };

  ScanTable() = default;
  explicit ScanTable(const Dfa &D);

  uint32_t numClasses() const { return NumClasses; }
  /// States including the synthetic self-looping dead state.
  uint32_t numStates() const { return NumStates; }

  /// Maximal-munch match via the SWAR batched table walk. Identical
  /// results to the scalar Dfa walk.
  Match matchSwar(const char *Data, size_t Size, size_t Pos) const;

  /// Bulk maximal munch: tokenizes Data from offset 0, appending one
  /// TokenSpan per match to \p Out, and returns the number of bytes
  /// consumed (< Size means the next byte starts no token). Equivalent to
  /// a matchSwar loop, but the per-call setup — table pointers, dispatch,
  /// result marshalling — is paid once per buffer instead of once per
  /// token, which matters when the median token is a few bytes long.
  size_t munchSwar(const char *Data, size_t Size,
                   std::vector<TokenSpan> &Out) const;

private:
  uint32_t NumClasses = 0;
  uint32_t NumStates = 0; ///< real states + 1 synthetic dead state
  uint32_t DeadScaled = 0;
  uint32_t StartScaled = 0;
  /// Byte -> equivalence class.
  std::array<uint8_t, 256> ClassOf{};
  /// Next[s*NumClasses + c] = nextState * NumClasses (pre-scaled).
  std::vector<int32_t> Next;
  /// AcceptScaled[s*NumClasses] = accept rule of s, or -1. Indexed by the
  /// scaled state so the hot loop never divides.
  std::vector<int32_t> AcceptScaled;
  /// SelfMask[s*NumClasses]: bit c set iff class c self-loops on s. Indexed
  /// by the scaled state like AcceptScaled. All-zero (run acceleration
  /// disabled, still correct) when NumClasses > 64.
  std::vector<uint64_t> SelfMask;
  /// Start-state pair dispatch: Pair[c0*NumClasses + c1] fuses the first
  /// two transitions of a match into one load — bits 0-15 scaled state
  /// after both bytes, bits 16-17 where the walk died (0 alive, 1 at byte
  /// 1, 2 at byte 2), bits 18-24 / 25-31 accept rule + 1 after byte 1 / 2
  /// (0 = none). Every maximal-munch call starts in the start state and
  /// most tokens are 1-2 bytes, so this halves the dependent-load chain
  /// exactly where it cannot be amortized. Empty (dispatch disabled) when
  /// the encoding does not fit (scaled states > 16 bits or > 126 rules).
  std::vector<uint32_t> Pair;
};

} // namespace lexer
} // namespace costar

#endif // COSTAR_LEXER_SCANTABLE_H
