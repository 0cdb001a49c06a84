//===- snapshot/Snapshot.h - Warm-start cache snapshots --------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A versioned, checksummed binary snapshot format for CoStar's two warm
/// caches: the SLL prediction DFA (core/Prediction.h, either backend) and
/// the lexer scan tables (lexer/ScanTable.h). Section 6.2 of the paper
/// notes that CoStar "does not currently offer a way to reuse a cache
/// across multiple inputs"; PRs 2 and 5 lifted that within and across
/// threads of one process, and this subsystem lifts it across *processes*:
/// train once (costar-warm), save, and every later cold process loads the
/// file and parses at warm-cache speed from its first input.
///
/// File layout (all integers native-endian; the endianness marker rejects
/// foreign-order files instead of byte-swapping them, which keeps load a
/// straight bounds-checked read over an mmap'd buffer):
///
///   [0,  8)  magic "CSTRSNAP"
///   [8, 12)  format version (FormatVersion)
///   [12,16)  endianness marker (EndianMark as written by the producer)
///   [16,24)  grammar fingerprint (grammarFingerprint of the training
///            grammar — a snapshot is only valid against the exact
///            grammar it was trained on)
///   [24,28)  SLL cache backend tag (BackendTagAvl / BackendTagHashed,
///            or BackendTagNone when no SLL section is present)
///   [28,32)  section count
///   then sectionCount 32-byte table entries:
///            { u32 tag, u32 pad(0), u64 offset, u64 size, u64 checksum }
///   then     u64 index hash: checksum() of every byte before it (header
///            plus table), so corrupted metadata is detected before any
///            offset in it is trusted
///   then     section payloads
///
/// Validation order is structural-before-semantic: magic, endianness,
/// version, table bounds, and the index hash are checked before the
/// grammar fingerprint or backend tag, and every section's bounds and
/// checksum before its payload is decoded. Every failure mode maps to a
/// distinct robust::SnapshotError kind; load() never adopts a partially
/// validated cache and never crashes on hostile bytes (the corruption
/// suite and fuzz_smoke drive exactly that contract).
///
/// What is stored vs. recomputed: the SLL section stores a hash-consed
/// sim-stack node table (configs share stack tails heavily, so flat
/// per-config chains would blow up quadratically and lose the sharing
/// that makes config comparisons short-circuit after load) plus each DFA
/// state's config list as (prediction, node ref) pairs in canonical
/// order (ascending subparser hash, ties broken structurally; see
/// compareSubparsers in core/Prediction.h) — resolutions, unique
/// predictions, and final-prediction sets are recomputed by
/// SllCache::intern on load, and load verifies that re-interning
/// reproduces the stored state ids exactly and that each stored list
/// already is its state's canonical list. The lexer
/// section stores the minimized Dfa and per-rule terminal ids — the
/// ScanTable is a pure function of the Dfa and is recompiled
/// (lexer::serializeDfa), which also keeps snapshots portable across
/// architectures.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_SNAPSHOT_SNAPSHOT_H
#define COSTAR_SNAPSHOT_SNAPSHOT_H

#include "core/Prediction.h"
#include "lexer/Scanner.h"
#include "robust/SnapshotError.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace costar {
namespace snapshot {

/// Bumped on any layout change; loads refuse other versions. Version 2
/// stores each DFA state's configs in the hash-canonical order
/// (compareSubparsers in core/Prediction.h); version 1 used
/// serialized-word order.
inline constexpr uint32_t FormatVersion = 2;
/// Written natively by the producer; a consumer of the other byte order
/// reads it as 0x04030201 and refuses the file.
inline constexpr uint32_t EndianMark = 0x01020304u;
inline constexpr char Magic[8] = {'C', 'S', 'T', 'R', 'S', 'N', 'A', 'P'};

/// Header backend tags (CacheBackend is an implementation enum; the file
/// format pins its own stable numbering).
inline constexpr uint32_t BackendTagAvl = 0;
inline constexpr uint32_t BackendTagHashed = 1;
/// Sentinel: the snapshot carries no SLL cache section (lexer-only).
inline constexpr uint32_t BackendTagNone = 0xFFFFFFFFu;

/// Section tags ("SLLC" and "LEXD" as little-endian u32 for readability
/// in hex dumps).
inline constexpr uint32_t SectionSllCache = 0x434C4C53u;
inline constexpr uint32_t SectionLexers = 0x4458454Cu;

inline constexpr size_t HeaderBytes = 32;
inline constexpr size_t SectionEntryBytes = 32;
/// Sanity bound on the section count: the format defines two sections, so
/// anything near this limit is a corrupted header, and bounding it keeps
/// the table extent computation overflow-free.
inline constexpr uint32_t MaxSections = 16;
/// Deepest sim-stack chain a snapshot may encode. Releasing a chain of N
/// shared nodes unwinds N destructor frames, so an unbounded chain in a
/// hostile (checksum-valid) file would be a stack-overflow bomb at cache
/// teardown; 64k frames stay well inside any default thread stack while
/// exceeding every stack depth SLL prediction reaches in practice.
inline constexpr uint32_t MaxSimStackDepth = 1u << 16;

/// The rolling checksum used for the index hash and every section:
/// mix64-chained over 8-byte little chunks plus the length, cheap enough
/// to run at load time over the whole file.
uint64_t checksum(std::span<const uint8_t> Bytes);

/// A structural fingerprint of \p G: symbol tables (names included, since
/// terminal ids come from interning order) and every production. Two
/// grammars with the same fingerprint index the same productions the same
/// way, which is exactly what cached DFA states depend on.
uint64_t grammarFingerprint(const Grammar &G);

/// File-format tag for \p B.
uint32_t backendTag(CacheBackend B);

/// Assembles a snapshot file image: header, section table, index hash,
/// payloads, with every checksum computed over the bytes actually
/// written. Public (rather than an implementation detail of
/// buildSnapshotBytes) so the corruption suite can craft files that are
/// checksum-valid yet semantically malformed — exercising the payload
/// validators rather than the checksum wall in front of them.
class SnapshotBuilder {
  uint64_t GrammarHash;
  uint32_t BackendTagValue;
  struct Section {
    uint32_t Tag;
    std::vector<uint8_t> Payload;
  };
  std::vector<Section> Sections;

public:
  SnapshotBuilder(uint64_t GrammarHash, uint32_t BackendTag)
      : GrammarHash(GrammarHash), BackendTagValue(BackendTag) {}

  void addSection(uint32_t Tag, std::vector<uint8_t> Payload) {
    Sections.push_back(Section{Tag, std::move(Payload)});
  }

  /// The complete file image.
  std::vector<uint8_t> finish() const;
};

/// One scanner's compiled form as stored in the lexer section.
struct LexerSnapshot {
  /// Per rule: emitted terminal id, or UINT32_MAX for skip rules.
  std::vector<TerminalId> RuleTerminals;
  lexer::Dfa D;

  /// Rebuilds a ready-to-run scanner (recompiling the ScanTable).
  lexer::Scanner toScanner() const {
    return lexer::Scanner::fromCompiled(D, RuleTerminals);
  }
};

/// Everything a validated snapshot yields.
struct SnapshotContents {
  /// The rebuilt SLL DFA cache, or null when the file carried no SLL
  /// section. Counters are zero; hand it to Parser::warmStart or
  /// SharedSllCache::adopt.
  std::shared_ptr<SllCache> Cache;
  std::vector<LexerSnapshot> Lexers;
};

/// Result of parseSnapshotBytes / loadSnapshot: contents on success, a
/// structured error otherwise (never both).
struct LoadResult {
  SnapshotContents Contents;
  std::optional<robust::SnapshotError> Err;

  bool ok() const { return !Err.has_value(); }
};

/// Serializes \p Cache (may be null: lexer-only snapshot) and \p Scanners
/// trained/compiled against \p G into a complete snapshot file image.
/// Deterministic: the same cache contents and scanners produce identical
/// bytes regardless of backend iteration order (SllCache::forEachStart /
/// forEachTransition sort by key).
std::vector<uint8_t>
buildSnapshotBytes(const Grammar &G, const SllCache *Cache,
                   std::span<const lexer::Scanner *const> Scanners);

/// Writes buildSnapshotBytes' image to \p Path via a same-directory
/// temporary and an atomic rename, so a crashed writer never leaves a
/// torn file where a loader expects a snapshot. \returns an error on I/O
/// failure, nullopt on success.
std::optional<robust::SnapshotError>
saveSnapshot(const std::string &Path, const Grammar &G, const SllCache *Cache,
             std::span<const lexer::Scanner *const> Scanners);

/// Validates and decodes a snapshot image against \p G (see the file
/// comment for the validation order). \p RequireBackend, when set,
/// additionally refuses files whose SLL cache was trained under a
/// different backend (BackendMismatch) — pass the backend the consuming
/// Parser runs so the mismatch surfaces at load time, not as a silently
/// refused adopt(). Hostile input is safe: every malformed byte pattern
/// yields a structured error, never a crash or a partially built cache.
LoadResult parseSnapshotBytes(std::span<const uint8_t> Bytes,
                              const Grammar &G,
                              std::optional<CacheBackend> RequireBackend = {});

/// Maps \p Path (mmap, falling back to a buffered read where mmap is
/// unavailable) and parses it with parseSnapshotBytes. The returned
/// contents own all their memory; the mapping is released before return.
LoadResult loadSnapshot(const std::string &Path, const Grammar &G,
                        std::optional<CacheBackend> RequireBackend = {});

} // namespace snapshot
} // namespace costar

#endif // COSTAR_SNAPSHOT_SNAPSHOT_H
