//===- tests/snapshot/SnapshotCorruptionTest.cpp ------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hostile-input battery for snapshot loading: a snapshot file is
/// untrusted bytes, and every corruption — truncation at any length,
/// any single bit flip, version/grammar/backend mismatches, and
/// *checksum-valid but semantically impossible* payloads — must produce a
/// structured robust::SnapshotError. Never a crash, never an exception,
/// and never a partially adopted cache (a failed load returns no contents
/// at all). Runs under the sanitizer-heavy label so ASan/UBSan and TSan
/// watch every sweep.
///
//===----------------------------------------------------------------------===//

#include "core/Parser.h"
#include "lang/Language.h"
#include "snapshot/Snapshot.h"

#include "../TestGrammars.h"
#include "grammar/Sampler.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>

using namespace costar;
using namespace costar::test;
using robust::SnapshotErrorKind;

namespace {

/// A realistic snapshot to corrupt: the JSON language's grammar with a
/// cache trained on sampled corpus words, plus its scanner.
struct Fixture {
  lang::Language L = lang::makeLanguage(lang::LangId::Json);
  std::vector<uint8_t> Bytes;

  explicit Fixture(CacheBackend CB) {
    GrammarAnalysis A(L.G, L.Start);
    PredictionTables Tables(L.G, A);
    DerivationSampler Sampler(A, 7);
    SllCache Cache(CB);
    ParseOptions Opts;
    Opts.Backend = CB;
    for (int I = 0; I < 6; ++I) {
      Word W = Sampler.sampleWord(L.Start, 8);
      if (W.size() > 400)
        continue;
      Machine M(L.G, Tables, L.Start, W, Opts, &Cache);
      (void)M.run();
    }
    const lexer::Scanner *Scanners[] = {L.Plain.get()};
    Bytes = snapshot::buildSnapshotBytes(L.G, &Cache, Scanners);
  }
};

/// Expects a load failure with no adopted contents; returns the error
/// kind for finer assertions.
SnapshotErrorKind expectRejected(std::span<const uint8_t> Bytes,
                                 const Grammar &G) {
  snapshot::LoadResult R = snapshot::parseSnapshotBytes(Bytes, G);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Contents.Cache, nullptr)
      << "rejected load leaked a partially built cache";
  EXPECT_TRUE(R.Contents.Lexers.empty())
      << "rejected load leaked partially decoded lexers";
  if (!R.Err)
    return SnapshotErrorKind::IoError; // unreachable; keeps gtest flowing
  EXPECT_FALSE(std::string(snapshotErrorKindName(R.Err->Kind)).empty());
  return R.Err->Kind;
}

/// Recomputes the index hash after a test deliberately edits header or
/// section-table bytes, so the edit reaches the semantic validators
/// instead of dying at the checksum wall.
void fixIndexHash(std::vector<uint8_t> &B) {
  uint32_t SectionCount;
  std::memcpy(&SectionCount, B.data() + 28, 4);
  size_t IndexOff =
      snapshot::HeaderBytes + SectionCount * snapshot::SectionEntryBytes;
  ASSERT_LE(IndexOff + 8, B.size());
  uint64_t H = snapshot::checksum({B.data(), IndexOff});
  std::memcpy(B.data() + IndexOff, &H, 8);
}

void w32(std::vector<uint8_t> &B, uint32_t V) {
  uint8_t Tmp[4];
  std::memcpy(Tmp, &V, 4);
  B.insert(B.end(), Tmp, Tmp + 4);
}

} // namespace

TEST(SnapshotCorruption, EveryTruncationIsRejected) {
  for (CacheBackend CB :
       {CacheBackend::AvlPaperFaithful, CacheBackend::Hashed}) {
    Fixture F(CB);
    ASSERT_GT(F.Bytes.size(), snapshot::HeaderBytes);
    // Every prefix length through the header and table, then sampled
    // lengths through the payloads (stride 53 keeps the sweep dense but
    // bounded), then every length near the end of the file.
    std::vector<size_t> Lengths;
    for (size_t N = 0; N < std::min<size_t>(F.Bytes.size(), 160); ++N)
      Lengths.push_back(N);
    for (size_t N = 160; N + 32 < F.Bytes.size(); N += 53)
      Lengths.push_back(N);
    for (size_t N = F.Bytes.size() - std::min<size_t>(F.Bytes.size(), 32);
         N < F.Bytes.size(); ++N)
      Lengths.push_back(N);
    for (size_t N : Lengths) {
      SnapshotErrorKind Kind =
          expectRejected({F.Bytes.data(), N}, F.L.G);
      // A truncation can surface as Truncated (extent checks) or a
      // checksum mismatch (when the cut lands inside checksummed bytes
      // whose length fields survived) — but never as a semantic error
      // against a structurally broken file.
      EXPECT_NE(Kind, SnapshotErrorKind::GrammarHashMismatch) << N;
      EXPECT_NE(Kind, SnapshotErrorKind::BackendMismatch) << N;
    }
  }
}

TEST(SnapshotCorruption, EverySeededBitFlipIsRejected) {
  // Every byte of a snapshot is sealed by either the index hash or a
  // section checksum (the index hash field itself is checked against the
  // sealed region), so any single-bit flip must fail validation.
  for (CacheBackend CB :
       {CacheBackend::AvlPaperFaithful, CacheBackend::Hashed}) {
    Fixture F(CB);
    std::mt19937_64 Rng(0xC0DE2026u + static_cast<uint64_t>(CB));
    for (int Trial = 0; Trial < 250; ++Trial) {
      std::vector<uint8_t> Mutated = F.Bytes;
      size_t Byte = Rng() % Mutated.size();
      Mutated[Byte] ^= static_cast<uint8_t>(1u << (Rng() % 8));
      (void)expectRejected(Mutated, F.L.G);
    }
  }
}

TEST(SnapshotCorruption, HeaderFieldMismatchesReportTheirKind) {
  Fixture F(CacheBackend::Hashed);
  const Grammar &G = F.L.G;
  {
    std::vector<uint8_t> B = F.Bytes;
    B[0] ^= 0xFF;
    EXPECT_EQ(expectRejected(B, G), SnapshotErrorKind::BadMagic);
  }
  {
    // A foreign-endian producer writes the marker byte-swapped.
    std::vector<uint8_t> B = F.Bytes;
    uint32_t Swapped = 0x04030201u;
    std::memcpy(B.data() + 12, &Swapped, 4);
    fixIndexHash(B);
    EXPECT_EQ(expectRejected(B, G), SnapshotErrorKind::EndiannessMismatch);
  }
  {
    std::vector<uint8_t> B = F.Bytes;
    uint32_t Future = snapshot::FormatVersion + 1;
    std::memcpy(B.data() + 8, &Future, 4);
    fixIndexHash(B);
    EXPECT_EQ(expectRejected(B, G), SnapshotErrorKind::VersionMismatch);
  }
  {
    // A version-1 file stores configs in serialized-word order, not the
    // hash-canonical order: refused by version, never reinterpreted.
    std::vector<uint8_t> B = F.Bytes;
    uint32_t Old = 1;
    std::memcpy(B.data() + 8, &Old, 4);
    fixIndexHash(B);
    EXPECT_EQ(expectRejected(B, G), SnapshotErrorKind::VersionMismatch);
  }
  {
    // Any header edit without the hash fix dies at the checksum wall.
    std::vector<uint8_t> B = F.Bytes;
    B[16] ^= 0x01;
    EXPECT_EQ(expectRejected(B, G),
              SnapshotErrorKind::HeaderChecksumMismatch);
  }
  {
    std::vector<uint8_t> B = F.Bytes;
    uint64_t WrongHash = 0xDEADBEEFCAFEF00Dull;
    std::memcpy(B.data() + 16, &WrongHash, 8);
    fixIndexHash(B);
    EXPECT_EQ(expectRejected(B, G), SnapshotErrorKind::GrammarHashMismatch);
  }
  {
    // The same bytes against the wrong grammar: trained-on-JSON loaded
    // against DOT must be a grammar-hash reject, not a subtle mis-parse.
    lang::Language Dot = lang::makeLanguage(lang::LangId::Dot);
    EXPECT_EQ(expectRejected(F.Bytes, Dot.G),
              SnapshotErrorKind::GrammarHashMismatch);
  }
  {
    snapshot::LoadResult R = snapshot::parseSnapshotBytes(
        F.Bytes, G, CacheBackend::AvlPaperFaithful);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.Err->Kind, SnapshotErrorKind::BackendMismatch);
  }
  {
    // Flipping a payload byte only: the section checksum catches it.
    std::vector<uint8_t> B = F.Bytes;
    B[B.size() - 1] ^= 0x80;
    EXPECT_EQ(expectRejected(B, G),
              SnapshotErrorKind::SectionChecksumMismatch);
  }
}

TEST(SnapshotCorruption, MismatchKindsSurviveTheFilePath) {
  // The costar-warm --verify CLI maps GrammarHashMismatch and
  // BackendMismatch to a distinct exit code (3: intact file, wrong
  // grammar/flags — re-train or fix the flags) vs. structural corruption
  // (1). That mapping is only as good as the error kinds surfacing
  // through loadSnapshot's file path exactly as they do from
  // parseSnapshotBytes — pin both kinds end to end through a real file.
  Fixture F(CacheBackend::Hashed);
  std::string Path = testing::TempDir() + "costar_mismatch_kinds.snap";
  {
    std::FILE *Out = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(Out, nullptr);
    ASSERT_EQ(std::fwrite(F.Bytes.data(), 1, F.Bytes.size(), Out),
              F.Bytes.size());
    std::fclose(Out);
  }
  {
    // Fingerprint mismatch: the JSON-trained file against the DOT grammar.
    lang::Language Dot = lang::makeLanguage(lang::LangId::Dot);
    snapshot::LoadResult R = snapshot::loadSnapshot(Path, Dot.G);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.Err->Kind, SnapshotErrorKind::GrammarHashMismatch);
    EXPECT_EQ(R.Contents.Cache, nullptr);
  }
  {
    // Backend-tag mismatch: a Hashed-trained file under a required AVL
    // backend (costar-warm --verify --backend avl).
    snapshot::LoadResult R = snapshot::loadSnapshot(
        Path, F.L.G, CacheBackend::AvlPaperFaithful);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.Err->Kind, SnapshotErrorKind::BackendMismatch);
    EXPECT_EQ(R.Contents.Cache, nullptr);
  }
  {
    // And the matching require succeeds — the mismatch rejects above are
    // about the pairing, not the file.
    snapshot::LoadResult R =
        snapshot::loadSnapshot(Path, F.L.G, CacheBackend::Hashed);
    EXPECT_TRUE(R.ok());
  }
  std::remove(Path.c_str());
}

TEST(SnapshotCorruption, ChecksumValidButMalformedPayloadsAreRejected) {
  // SnapshotBuilder produces files whose every checksum is correct; what
  // varies here is the payload semantics. These must all fall through the
  // checksum wall and die in the payload validators as Malformed.
  Grammar G = figure2Grammar();
  uint64_t Hash = snapshot::grammarFingerprint(G);
  auto BuildSll = [&](const std::vector<uint32_t> &Words) {
    std::vector<uint8_t> Payload;
    for (uint32_t W : Words)
      w32(Payload, W);
    snapshot::SnapshotBuilder B(Hash, snapshot::BackendTagHashed);
    B.addSection(snapshot::SectionSllCache, std::move(Payload));
    return B.finish();
  };
  const uint32_t H = snapshot::BackendTagHashed;

  // Payload prelude: tag, numNodes, numStates, numStarts, transLo,
  // transHi; then the node table (prod, pos, tailRef triples), states,
  // starts, transitions.
  struct Case {
    const char *Name;
    std::vector<uint32_t> Words;
  };
  const Case Cases[] = {
      {"empty payload", {}},
      {"tag disagrees with header",
       {snapshot::BackendTagAvl, 0, 0, 0, 0, 0}},
      {"node count exceeds payload", {H, 1000, 0, 0, 0, 0}},
      {"state count exceeds payload", {H, 0, 1000, 0, 0, 0}},
      {"node production out of range",
       {H, 1, 0, 0, 0, 0, /*Prod=*/99, /*Pos=*/0, /*Tail=*/0}},
      {"node position past rhs",
       {H, 1, 0, 0, 0, 0, /*Prod=*/0, /*Pos=*/99, /*Tail=*/0}},
      {"node tail ref points forwards",
       {H, 1, 0, 0, 0, 0, /*Prod=*/0, /*Pos=*/0, /*Tail=*/1}},
      {"unreferenced node entry",
       {H, 1, 0, 0, 0, 0, /*Prod=*/0, /*Pos=*/0, /*Tail=*/0}},
      {"config prediction out of range",
       {H, 0, 1, 0, 0, 0, /*NumConfigs=*/1, /*Pred=*/99, /*Ref=*/0}},
      {"config stack ref out of range",
       {H, 0, 1, 0, 0, 0, 1, /*Pred=*/0, /*Ref=*/5}},
      {"trailing words", {H, 0, 0, 0, 0, 0, 42}},
      {"start state out of range",
       {H, 0, 0, /*NumStarts=*/1, 0, 0, /*X=*/0, /*Id=*/7}},
      {"transition out of range",
       {H, 0, 0, 0, /*NumTrans=*/1, 0, /*From=*/3, /*T=*/0, /*To=*/0}},
  };
  for (const Case &C : Cases) {
    std::vector<uint8_t> File = BuildSll(C.Words);
    snapshot::LoadResult R = snapshot::parseSnapshotBytes(File, G);
    ASSERT_FALSE(R.ok()) << C.Name;
    EXPECT_EQ(R.Err->Kind, SnapshotErrorKind::Malformed) << C.Name;
    EXPECT_EQ(R.Contents.Cache, nullptr) << C.Name;
  }

  {
    // A config whose stack top is parked on a nonterminal violates the
    // stable-config invariant even when every ref is in range.
    uint32_t NtProd = UINT32_MAX, NtPos = 0;
    for (uint32_t P = 0; P < G.numProductions() && NtProd == UINT32_MAX;
         ++P) {
      const std::vector<Symbol> &Rhs = G.production(P).Rhs;
      for (uint32_t Pos = 0; Pos < Rhs.size(); ++Pos)
        if (!Rhs[Pos].isTerminal()) {
          NtProd = P;
          NtPos = Pos;
          break;
        }
    }
    ASSERT_NE(NtProd, UINT32_MAX);
    std::vector<uint8_t> File = BuildSll(
        {H, 1, 1, 0, 0, 0, NtProd, NtPos, 0, /*NumConfigs=*/1, 0, 1});
    snapshot::LoadResult R = snapshot::parseSnapshotBytes(File, G);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.Err->Kind, SnapshotErrorKind::Malformed);
  }
  {
    // Header promises a cache but the table has no SLL section.
    snapshot::SnapshotBuilder B(Hash, snapshot::BackendTagHashed);
    snapshot::LoadResult R = snapshot::parseSnapshotBytes(B.finish(), G);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.Err->Kind, SnapshotErrorKind::Malformed);
  }
  {
    // Unknown section tag.
    snapshot::SnapshotBuilder B(Hash, snapshot::BackendTagNone);
    B.addSection(0x21215A5Au, {1, 2, 3});
    snapshot::LoadResult R = snapshot::parseSnapshotBytes(B.finish(), G);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.Err->Kind, SnapshotErrorKind::Malformed);
  }
  {
    // Duplicate lexer sections.
    snapshot::SnapshotBuilder B(Hash, snapshot::BackendTagNone);
    std::vector<uint8_t> Empty;
    w32(Empty, 0);
    B.addSection(snapshot::SectionLexers, Empty);
    B.addSection(snapshot::SectionLexers, Empty);
    snapshot::LoadResult R = snapshot::parseSnapshotBytes(B.finish(), G);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.Err->Kind, SnapshotErrorKind::Malformed);
  }
  {
    // Lexer DFA whose accept tag indexes past the rule table.
    std::vector<uint8_t> Payload;
    w32(Payload, 1);          // one scanner
    w32(Payload, 1);          // one rule
    w32(Payload, 0);          // -> terminal 0
    w32(Payload, 2 + 1 + 256); // dfa word length
    w32(Payload, 1);          // one state
    w32(Payload, 0);          // start
    w32(Payload, 5);          // accept rule 5 of a 1-rule scanner
    for (int I = 0; I < 256; ++I)
      w32(Payload, static_cast<uint32_t>(-1));
    snapshot::SnapshotBuilder B(Hash, snapshot::BackendTagNone);
    B.addSection(snapshot::SectionLexers, std::move(Payload));
    snapshot::LoadResult R = snapshot::parseSnapshotBytes(B.finish(), G);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.Err->Kind, SnapshotErrorKind::Malformed);
  }
}

namespace {

/// A Hashed cache for the Figure 2 grammar trained on one word, reloaded
/// from its own snapshot so every config stack is a heap node.
std::shared_ptr<SllCache> trainedFigure2Cache(const Grammar &G,
                                              const char *Input) {
  NonterminalId S = G.lookupNonterminal("S");
  GrammarAnalysis A(G, S);
  PredictionTables Tables(G, A);
  SllCache Cache(CacheBackend::Hashed);
  ParseOptions Opts;
  Word W = makeWord(G, Input);
  Machine M(G, Tables, S, W, Opts, &Cache);
  EXPECT_EQ(M.run().kind(), ParseResult::Kind::Unique);
  snapshot::LoadResult Good = snapshot::parseSnapshotBytes(
      snapshot::buildSnapshotBytes(G, &Cache, {}), G);
  EXPECT_TRUE(Good.ok());
  return Good.Contents.Cache;
}

/// Serializes \p States (each a config list, in the given order) as a
/// checksum-valid Hashed SLL section with no starts or transitions,
/// mirroring the writer's hash-consed node-table encoding.
std::vector<uint8_t>
craftSllSnapshot(const Grammar &G,
                 const std::vector<std::vector<Subparser>> &States) {
  std::vector<uint32_t> NodeWords, StateWords;
  std::map<const SimStackNode *, uint32_t> Ptr;
  std::map<std::array<uint32_t, 3>, uint32_t> Struct;
  auto EmitStack = [&](const SimStackNode *Top) -> uint32_t {
    std::vector<const SimStackNode *> Chain;
    while (Top && !Ptr.count(Top)) {
      Chain.push_back(Top);
      Top = Top->Tail.get();
    }
    uint32_t Ref = Top ? Ptr.at(Top) : 0;
    for (auto It = Chain.rbegin(); It != Chain.rend(); ++It) {
      std::array<uint32_t, 3> Key = {(*It)->F.Prod, (*It)->F.Pos, Ref};
      auto [Slot, Fresh] = Struct.emplace(
          Key, static_cast<uint32_t>(NodeWords.size() / 3 + 1));
      if (Fresh)
        NodeWords.insert(NodeWords.end(), Key.begin(), Key.end());
      Ref = Slot->second;
      Ptr.emplace(*It, Ref);
    }
    return Ref;
  };
  for (const std::vector<Subparser> &Configs : States) {
    StateWords.push_back(static_cast<uint32_t>(Configs.size()));
    for (const Subparser &Sp : Configs) {
      StateWords.push_back(Sp.Prediction);
      StateWords.push_back(EmitStack(Sp.Stack.get()));
    }
  }
  std::vector<uint32_t> Words = {
      snapshot::BackendTagHashed,
      static_cast<uint32_t>(NodeWords.size() / 3),
      static_cast<uint32_t>(States.size()), 0, 0, 0};
  Words.insert(Words.end(), NodeWords.begin(), NodeWords.end());
  Words.insert(Words.end(), StateWords.begin(), StateWords.end());
  std::vector<uint8_t> Payload;
  for (uint32_t V : Words)
    w32(Payload, V);
  snapshot::SnapshotBuilder B(snapshot::grammarFingerprint(G),
                              snapshot::BackendTagHashed);
  B.addSection(snapshot::SectionSllCache, std::move(Payload));
  return B.finish();
}

/// The config lists of every state of \p C, in id order.
std::vector<std::vector<Subparser>> stateConfigs(const SllCache &C) {
  std::vector<std::vector<Subparser>> States;
  for (uint32_t Id = 0; Id < C.numStates(); ++Id)
    States.push_back(C.state(Id).Configs);
  return States;
}

/// The first state of \p C with at least two configs.
uint32_t firstMultiConfigState(const SllCache &C) {
  for (uint32_t Id = 0; Id < C.numStates(); ++Id)
    if (C.state(Id).Configs.size() >= 2)
      return Id;
  ADD_FAILURE() << "no DFA state with two configs";
  return 0;
}

} // namespace

TEST(SnapshotCorruption, NonCanonicalStateOrderIsRejectedNotAdopted) {
  // A checksum-valid SLL section whose states do not re-intern to their
  // stored ids (here: the same state stored twice) must be rejected —
  // this is the guard that keeps a crafted file from planting DFA states
  // the grammar could never produce.
  Grammar G = figure2Grammar();
  std::shared_ptr<SllCache> C = trainedFigure2Cache(G, "a a b c");
  ASSERT_TRUE(C);
  ASSERT_GT(C->numStates(), 1u);
  ASSERT_TRUE(snapshot::parseSnapshotBytes(
                  craftSllSnapshot(G, {C->state(0).Configs}), G)
                  .ok())
      << "the crafted encoding itself must load";
  snapshot::LoadResult R = snapshot::parseSnapshotBytes(
      craftSllSnapshot(G, {C->state(0).Configs, C->state(0).Configs}), G);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err->Kind, SnapshotErrorKind::Malformed);
}

TEST(SnapshotCorruption, SwappedConfigsAreRejectedNotAdopted) {
  // intern() sorts its input, so a state stored with two configs swapped
  // still re-interns to its id; the load must compare the stored list
  // with the canonical one, or save(load(x)) would differ from x.
  Grammar G = figure2Grammar();
  std::shared_ptr<SllCache> C = trainedFigure2Cache(G, "a a b c");
  ASSERT_TRUE(C);
  std::vector<std::vector<Subparser>> States = stateConfigs(*C);
  ASSERT_TRUE(snapshot::parseSnapshotBytes(craftSllSnapshot(G, States), G)
                  .ok());
  std::vector<Subparser> &Victim = States[firstMultiConfigState(*C)];
  std::swap(Victim[0], Victim[1]);
  snapshot::LoadResult R =
      snapshot::parseSnapshotBytes(craftSllSnapshot(G, States), G);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err->Kind, SnapshotErrorKind::Malformed);
  EXPECT_EQ(R.Contents.Cache, nullptr);
}

TEST(SnapshotCorruption, RepeatedConfigIsRejectedNotAdopted) {
  // Closure never emits one config twice; a state stored with a repeated
  // config is one the grammar cannot produce, even though its list is
  // sorted and re-interns to its stored id.
  Grammar G = figure2Grammar();
  std::shared_ptr<SllCache> C = trainedFigure2Cache(G, "a a b c");
  ASSERT_TRUE(C);
  std::vector<std::vector<Subparser>> States = stateConfigs(*C);
  std::vector<Subparser> &Victim = States[firstMultiConfigState(*C)];
  Victim.insert(Victim.begin(), Victim.front());
  snapshot::LoadResult R =
      snapshot::parseSnapshotBytes(craftSllSnapshot(G, States), G);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err->Kind, SnapshotErrorKind::Malformed);
  EXPECT_EQ(R.Contents.Cache, nullptr);
}

TEST(SnapshotCorruption, FileIoErrorsAreStructured) {
  Grammar G = figure2Grammar();
  snapshot::LoadResult R =
      snapshot::loadSnapshot("/nonexistent/dir/snap.bin", G);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err->Kind, SnapshotErrorKind::IoError);

  std::optional<robust::SnapshotError> E =
      snapshot::saveSnapshot("/nonexistent/dir/snap.bin", G, nullptr, {});
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Kind, SnapshotErrorKind::IoError);
}

TEST(SnapshotCorruption, SaveLoadRoundTripThroughRealFiles) {
  // The file path (mmap load, atomic-rename save) end to end, including a
  // truncated on-disk file.
  Fixture F(CacheBackend::Hashed);
  std::string Path = ::testing::TempDir() + "costar_snapshot_test.bin";
  {
    GrammarAnalysis A(F.L.G, F.L.Start);
    PredictionTables Tables(F.L.G, A);
    DerivationSampler Sampler(A, 7);
    SllCache Cache(CacheBackend::Hashed);
    ParseOptions Opts;
    for (int I = 0; I < 6; ++I) {
      Word W = Sampler.sampleWord(F.L.Start, 8);
      if (W.size() > 400)
        continue;
      Machine M(F.L.G, Tables, F.L.Start, W, Opts, &Cache);
      (void)M.run();
    }
    const lexer::Scanner *Scanners[] = {F.L.Plain.get()};
    ASSERT_FALSE(
        snapshot::saveSnapshot(Path, F.L.G, &Cache, Scanners).has_value());
  }
  snapshot::LoadResult R =
      snapshot::loadSnapshot(Path, F.L.G, CacheBackend::Hashed);
  ASSERT_TRUE(R.ok()) << R.Err->toString();
  ASSERT_TRUE(R.Contents.Cache);
  EXPECT_GT(R.Contents.Cache->numStates(), 0u);
  ASSERT_EQ(R.Contents.Lexers.size(), 1u);

  // Truncate the file on disk and reload: structured failure.
  {
    std::FILE *In = std::fopen(Path.c_str(), "rb");
    ASSERT_NE(In, nullptr);
    uint8_t Head[40];
    ASSERT_EQ(std::fread(Head, 1, sizeof(Head), In), sizeof(Head));
    std::fclose(In);
    std::FILE *Out = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(Out, nullptr);
    ASSERT_EQ(std::fwrite(Head, 1, sizeof(Head), Out), sizeof(Head));
    std::fclose(Out);
  }
  snapshot::LoadResult Bad = snapshot::loadSnapshot(Path, F.L.G);
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.Contents.Cache, nullptr);
  std::remove(Path.c_str());
}
