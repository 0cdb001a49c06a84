//===- tests/fuzz/fuzz_smoke.cpp - Deterministic lex+parse fuzz smoke --------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A time-boxed, fully deterministic fuzz smoke over the end-to-end
/// pipeline: seeded pseudo-random byte streams are fed through the JSON
/// and DOT lexers and, when they lex, parsed under a resource budget.
/// The same seeded bytes — plus mutated copies of a genuine warm-start
/// snapshot — are also fed through the snapshot loader as hostile files,
/// and byte-smashed outputs of the Verilog workload generator run the
/// lex + parse + semantic-lint pipeline end to end. Byte smashes of a
/// checksummed file mostly die at a checksum; a second snapshot leg
/// edits the words of the SLL payload and re-seals them with
/// SnapshotBuilder, so every such load runs the payload validators.
/// Every outcome (accept, reject, lex error, budget exceeded, structured
/// snapshot error) is legal; the only failures are crashes, sanitizer
/// reports, or a hung parse — which is exactly what the CI job
/// (ASan/UBSan, 60 s) checks for.
///
/// The current input is written to an artifact file before each
/// iteration, so a crash leaves the offending bytes on disk for CI to
/// upload; the file is removed on a clean exit.
///
/// Environment:
///   COSTAR_FUZZ_SECONDS   time budget (default 2)
///   COSTAR_FUZZ_SEED      base seed (default 20260806)
///   COSTAR_FUZZ_ARTIFACT  artifact path (default fuzz_artifact.bin)
///
//===----------------------------------------------------------------------===//

#include "core/Parser.h"
#include "lang/Language.h"
#include "semantic/VerilogLint.h"
#include "snapshot/Snapshot.h"
#include "workload/Generators.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace costar;

namespace {

uint64_t splitmix64(uint64_t &State) {
  State += 0x9E3779B97F4A7C15ull;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

/// Bytes biased toward the structural characters of the target
/// languages, so a useful fraction of inputs survives the lexer instead
/// of dying at the first byte. Shared with the Verilog mutation leg.
const char Structural[] = "{}[]():;,=\"' \n\t0123456789"
                          "abcdefghijklmnopqrstuvwxyz"
                          "->truefalsenull._";

std::string randomInput(uint64_t &Rng) {
  size_t Len = splitmix64(Rng) % 2048;
  std::string S;
  S.reserve(Len);
  for (size_t I = 0; I < Len; ++I) {
    uint64_t R = splitmix64(Rng);
    if (R % 10 < 8)
      S += Structural[(R >> 8) % (sizeof(Structural) - 1)];
    else
      S += static_cast<char>((R >> 8) & 0xFF);
  }
  return S;
}

/// The SLL section payload of a snapshot image built by
/// buildSnapshotBytes (header and section table already trusted).
std::vector<uint32_t> sllPayloadWords(const std::vector<uint8_t> &File) {
  auto Read = [&](size_t Off, auto &V) {
    std::memcpy(&V, File.data() + Off, sizeof(V));
  };
  uint32_t Count;
  Read(28, Count);
  for (uint32_t S = 0; S < Count; ++S) {
    size_t Entry = snapshot::HeaderBytes + S * snapshot::SectionEntryBytes;
    uint32_t Tag;
    uint64_t Off, Size;
    Read(Entry, Tag);
    Read(Entry + 8, Off);
    Read(Entry + 16, Size);
    if (Tag != snapshot::SectionSllCache)
      continue;
    std::vector<uint32_t> Words(Size / 4);
    std::memcpy(Words.data(), File.data() + Off, Words.size() * 4);
    return Words;
  }
  return {};
}

/// Applies 1-4 seeded edits to \p W, each shaped like a plausible
/// corruption of a word table: a small value (a ref, a position, a
/// count), an off-by-one, a copy of another word, a swap of two words, or
/// a few words cut from or added to the end.
void mutateWords(std::vector<uint32_t> &W, uint64_t &Rng) {
  uint64_t NumEdits = 1 + splitmix64(Rng) % 4;
  for (uint64_t E = 0; E < NumEdits && !W.empty(); ++E) {
    uint64_t R = splitmix64(Rng);
    size_t I = (R >> 8) % W.size();
    size_t J = (R >> 36) % W.size();
    switch (R % 6) {
    case 0:
      W[I] = static_cast<uint32_t>((R >> 40) % 64);
      break;
    case 1:
      W[I] += (R >> 40) & 1 ? 1 : UINT32_MAX;
      break;
    case 2:
      W[I] = W[J];
      break;
    case 3:
      std::swap(W[I], W[J]);
      break;
    case 4:
      W.resize(W.size() - std::min<size_t>(W.size(), 1 + (R >> 40) % 4));
      break;
    default:
      W.insert(W.end(), 1 + (R >> 40) % 4, static_cast<uint32_t>(R >> 48));
      break;
    }
  }
}

/// One snapshot leg's tally: loads, loads that reached a payload decoder
/// (accepted, or refused as Malformed at a payload offset: header-level
/// Malformed errors point in front of every payload), and accepted loads.
struct SnapshotLeg {
  uint64_t Loads = 0, Decoded = 0, Accepted = 0;

  void count(const snapshot::LoadResult &R, std::span<const uint8_t> File) {
    ++Loads;
    if (R.ok()) {
      ++Decoded;
      ++Accepted;
      return;
    }
    if (R.Err->Kind != robust::SnapshotErrorKind::Malformed ||
        File.size() < snapshot::HeaderBytes)
      return;
    uint32_t Count;
    std::memcpy(&Count, File.data() + 28, 4);
    if (R.Err->Offset >=
        snapshot::HeaderBytes + uint64_t(Count) * snapshot::SectionEntryBytes +
            8)
      ++Decoded;
  }

  std::string str() const {
    return std::to_string(Loads) + " (" + std::to_string(Decoded) +
           " decoded, " + std::to_string(Accepted) + " accepted)";
  }
};

bool writeArtifact(const char *Path, const std::string &Bytes,
                   uint64_t Seed) {
  std::FILE *F = std::fopen(Path, "wb");
  if (!F)
    return false;
  std::fprintf(F, "seed=%llu\n", static_cast<unsigned long long>(Seed));
  std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  std::fclose(F);
  return true;
}

} // namespace

int main() {
  const char *SecondsEnv = std::getenv("COSTAR_FUZZ_SECONDS");
  const char *SeedEnv = std::getenv("COSTAR_FUZZ_SEED");
  const char *ArtifactEnv = std::getenv("COSTAR_FUZZ_ARTIFACT");
  double Seconds = SecondsEnv ? std::atof(SecondsEnv) : 2.0;
  uint64_t BaseSeed =
      SeedEnv ? std::strtoull(SeedEnv, nullptr, 10) : 20260806ull;
  const char *Artifact = ArtifactEnv ? ArtifactEnv : "fuzz_artifact.bin";

  // Per-input envelope: generous for a fuzz case, tight enough that a
  // pathological input cannot eat the whole time box.
  ParseOptions Budgeted;
  Budgeted.Budget.MaxSteps = 1u << 22;
  Budgeted.Budget.MaxWallMicros = 2u * 1000u * 1000u;

  lang::Language Json = lang::makeLanguage(lang::LangId::Json);
  lang::Language Dot = lang::makeLanguage(lang::LangId::Dot);
  lang::Language Verilog = lang::makeLanguage(lang::LangId::Verilog);
  Parser JsonP(Json.G, Json.Start, Budgeted);
  Parser DotP(Dot.G, Dot.Start, Budgeted);
  Parser VerilogP(Verilog.G, Verilog.Start, Budgeted);
  semantic::VerilogLinter Linter(Verilog.G);

  // Snapshot-loader leg: a genuine warm-start artifact to mutate, so the
  // fuzz reaches past the header checks into the payload validators.
  std::vector<uint8_t> ValidSnapshot;
  {
    ParseOptions Opts;
    Opts.ReuseCache = true;
    Parser Trainer(Json.G, Json.Start, Opts);
    lexer::LexResult Lex = Json.lex("[{\"k\": [1, 2.5, true]}, null]");
    if (Lex.ok())
      (void)Trainer.parse(Lex.Tokens);
    const lexer::Scanner *Scanners[] = {Json.Plain.get()};
    ValidSnapshot = snapshot::buildSnapshotBytes(
        Json.G, &Trainer.sharedCache(), Scanners);
  }
  const std::vector<uint32_t> ValidSll = sllPayloadWords(ValidSnapshot);
  const uint64_t JsonFingerprint = snapshot::grammarFingerprint(Json.G);

  auto End = std::chrono::steady_clock::now() +
             std::chrono::duration<double>(Seconds);
  uint64_t Rng = BaseSeed;
  uint64_t Iterations = 0, Lexed = 0, Parsed = 0, Budgeted_ = 0;
  uint64_t Linted = 0;
  SnapshotLeg RawLeg, SmashLeg, WordLeg;

  while (std::chrono::steady_clock::now() < End) {
    ++Iterations;
    std::string Input = randomInput(Rng);
    if (!writeArtifact(Artifact, Input, BaseSeed)) {
      std::fprintf(stderr, "cannot write artifact %s\n", Artifact);
      return 2;
    }
    for (int Lang = 0; Lang < 2; ++Lang) {
      const lang::Language &L = Lang == 0 ? Json : Dot;
      Parser &P = Lang == 0 ? JsonP : DotP;
      lexer::LexResult Lex = L.lex(Input);
      if (!Lex.ok())
        continue;
      ++Lexed;
      ParseResult R = P.parse(Lex.Tokens);
      if (R.kind() == ParseResult::Kind::BudgetExceeded)
        ++Budgeted_;
      else
        ++Parsed;
    }

    // Hostile snapshot loads: the raw fuzz bytes as a "file"; a mutated
    // copy of the valid snapshot (seeded byte smashes plus an occasional
    // truncation), which the checksums mostly stop; and the valid SLL
    // payload with edited words, re-sealed so that every load runs the
    // payload validators. A load either succeeds or returns a structured
    // error; anything else is a crash the sanitizers will flag.
    {
      std::span<const uint8_t> Raw(
          reinterpret_cast<const uint8_t *>(Input.data()), Input.size());
      RawLeg.count(snapshot::parseSnapshotBytes(Raw, Json.G), Raw);

      std::vector<uint8_t> Mutated = ValidSnapshot;
      uint64_t NumEdits = 1 + splitmix64(Rng) % 8;
      for (uint64_t E = 0; E < NumEdits && !Mutated.empty(); ++E) {
        uint64_t R = splitmix64(Rng);
        Mutated[R % Mutated.size()] = static_cast<uint8_t>(R >> 32);
      }
      if (splitmix64(Rng) % 4 == 0 && !Mutated.empty())
        Mutated.resize(splitmix64(Rng) % Mutated.size());
      SmashLeg.count(snapshot::parseSnapshotBytes(Mutated, Json.G), Mutated);

      std::vector<uint32_t> Words = ValidSll;
      mutateWords(Words, Rng);
      std::vector<uint8_t> Payload(Words.size() * 4);
      if (!Words.empty())
        std::memcpy(Payload.data(), Words.data(), Payload.size());
      snapshot::SnapshotBuilder Builder(JsonFingerprint,
                                        snapshot::BackendTagHashed);
      Builder.addSection(snapshot::SectionSllCache, std::move(Payload));
      std::vector<uint8_t> Sealed = Builder.finish();
      if (!writeArtifact(Artifact,
                         std::string(Sealed.begin(), Sealed.end()),
                         BaseSeed)) {
        std::fprintf(stderr, "cannot write artifact %s\n", Artifact);
        return 2;
      }
      WordLeg.count(snapshot::parseSnapshotBytes(Sealed, Json.G), Sealed);
    }

    // Verilog leg: a generated module corpus with seeded byte smashes,
    // run through lex + parse + the semantic lint passes. Valid-looking
    // mutants reach the linter's scope/width/fold logic with trees the
    // hand-written tests would never produce; any outcome but a crash is
    // legal (lint findings included).
    {
      std::mt19937_64 Gen(splitmix64(Rng));
      std::string VSrc = workload::generateSource(lang::LangId::Verilog,
                                                  Gen, 120);
      uint64_t NumEdits = splitmix64(Rng) % 8;
      for (uint64_t E = 0; E < NumEdits && !VSrc.empty(); ++E) {
        uint64_t R = splitmix64(Rng);
        VSrc[R % VSrc.size()] = Structural[(R >> 8) %
                                           (sizeof(Structural) - 1)];
      }
      if (!writeArtifact(Artifact, VSrc, BaseSeed)) {
        std::fprintf(stderr, "cannot write artifact %s\n", Artifact);
        return 2;
      }
      lexer::LexResult Lex = Verilog.lex(VSrc);
      if (Lex.ok()) {
        ++Lexed;
        ParseResult R = VerilogP.parse(Lex.Tokens);
        if (R.kind() == ParseResult::Kind::BudgetExceeded) {
          ++Budgeted_;
        } else {
          ++Parsed;
          if (R.accepted()) {
            (void)Linter.lint(R.tree());
            ++Linted;
          }
        }
      }
    }
  }

  std::remove(Artifact);
  std::printf("fuzz smoke: %llu inputs, %llu lexed, %llu parsed, "
              "%llu budget-exceeded, snapshot loads: raw %s, "
              "byte-smashed %s, word-edited %s; %llu linted, 0 crashes\n",
              static_cast<unsigned long long>(Iterations),
              static_cast<unsigned long long>(Lexed),
              static_cast<unsigned long long>(Parsed),
              static_cast<unsigned long long>(Budgeted_),
              RawLeg.str().c_str(), SmashLeg.str().c_str(),
              WordLeg.str().c_str(), static_cast<unsigned long long>(Linted));
  return 0;
}
