//===- tests/lexer/LexBackendEquivalenceTest.cpp ------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the lexer-backend claim (lexer/ScanTable.h): the
/// SWAR maximal-munch matcher — both the single-match entry (matchAt) and
/// the bulk entry (munch) — is bit-identical to the byte-at-a-time scalar
/// walk over Dfa::next, on every input:
///
///  - generated corpora for every benchmark language, both scanner by
///    scanner and through each Language's full lexer stack (the XML modal
///    scanner and the Python indentation pipeline included),
///  - randomly corrupted corpora (byte splices, so munch hits unmatchable
///    bytes at random offsets and every backend must stop identically),
///  - random lexer specs over small alphabets (random DFA shapes),
///  - adversarial byte strings (all 256 values, runs crossing the 8-byte
///    SWAR block boundary).
///
/// Additionally, munch must equal an explicit matchAt loop on the same
/// backend — the bulk API is an amortization, never a semantic change.
///
//===----------------------------------------------------------------------===//

#include "adt/Instrument.h"
#include "lang/Language.h"
#include "lexer/Scanner.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

using namespace costar;
using namespace costar::lexer;

namespace {

std::vector<ScanTable::TokenSpan> munchAll(const Scanner &S,
                                           const std::string &Text,
                                           size_t &Consumed) {
  std::vector<ScanTable::TokenSpan> Spans;
  Consumed = S.munch(Text, Spans);
  return Spans;
}

/// Tokenizes \p Text with a per-token matchAt loop on whatever backend
/// \p S is set to — the reference shape munch must reproduce exactly.
std::vector<ScanTable::TokenSpan> matchAtLoop(const Scanner &S,
                                              const std::string &Text,
                                              size_t &Consumed) {
  std::vector<ScanTable::TokenSpan> Spans;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    Scanner::MatchResult M = S.matchAt(Text, Pos);
    if (M.Rule < 0 || M.Length == 0)
      break;
    Spans.push_back(
        ScanTable::TokenSpan{M.Rule, static_cast<uint32_t>(M.Length)});
    Pos += M.Length;
  }
  Consumed = Pos;
  return Spans;
}

void expectSpansEqual(const std::vector<ScanTable::TokenSpan> &A,
                      const std::vector<ScanTable::TokenSpan> &B,
                      const std::string &Text, const char *What) {
  ASSERT_EQ(A.size(), B.size()) << What << " span count on: " << Text;
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Rule, B[I].Rule) << What << " span " << I << ": " << Text;
    EXPECT_EQ(A[I].Length, B[I].Length)
        << What << " span " << I << ": " << Text;
  }
}

/// The full cross-check for one scanner and one input: every backend's
/// munch and matchAt loop against the scalar baseline's.
void expectAllBackendsAgree(const Scanner &Base, const std::string &Text) {
  Scanner Scalar = Base, Swar = Base;
  Scalar.setLexBackend(LexBackend::ScalarPaperFaithful);
  Swar.setLexBackend(LexBackend::Swar);

  size_t RefConsumed;
  std::vector<ScanTable::TokenSpan> Ref =
      matchAtLoop(Scalar, Text, RefConsumed);

  for (const Scanner *S : {&Scalar, &Swar}) {
    size_t C1, C2;
    std::vector<ScanTable::TokenSpan> ViaMunch = munchAll(*S, Text, C1);
    std::vector<ScanTable::TokenSpan> ViaLoop = matchAtLoop(*S, Text, C2);
    EXPECT_EQ(C1, RefConsumed) << "munch consumed on: " << Text;
    EXPECT_EQ(C2, RefConsumed) << "matchAt consumed on: " << Text;
    expectSpansEqual(ViaMunch, Ref, Text, "munch-vs-scalar");
    expectSpansEqual(ViaLoop, Ref, Text, "matchAt-vs-scalar");
  }
}

/// Splices random bytes into \p Text so unmatchable bytes land at random
/// offsets (including inside multi-byte tokens and self-loop runs).
std::string corruptText(std::mt19937_64 &Rng, std::string Text) {
  size_t Edits = 1 + Rng() % 4;
  for (size_t E = 0; E < Edits && !Text.empty(); ++E) {
    size_t I = Rng() % Text.size();
    switch (Rng() % 3) {
    case 0:
      Text[I] = static_cast<char>(Rng() & 0xFF);
      break;
    case 1:
      Text.erase(Text.begin() + I);
      break;
    default:
      Text.insert(Text.begin() + I, static_cast<char>(Rng() & 0xFF));
      break;
    }
  }
  return Text;
}

/// Language::lex on both backends: identical tokens (terminal, lexeme,
/// line/col) and identical error diagnostics. The byte counters prove
/// setLexBackend reached every scanner in the stack, so neither side
/// silently ran the other's matcher.
void expectLanguageLexAgrees(lang::Language &L, const std::string &Src) {
  adt::TableCounters::reset();
  L.setLexBackend(LexBackend::ScalarPaperFaithful);
  LexResult Ref = L.lex(Src);
  EXPECT_EQ(adt::TableCounters::lexSwarBytes(), 0u) << L.Name;
  uint64_t ScalarBytes = adt::TableCounters::lexScalarBytes();
  L.setLexBackend(LexBackend::Swar);
  LexResult Got = L.lex(Src);
  EXPECT_EQ(adt::TableCounters::lexScalarBytes(), ScalarBytes) << L.Name;
  ASSERT_EQ(Got.Tokens.size(), Ref.Tokens.size()) << L.Name << ": " << Src;
  for (size_t I = 0; I < Ref.Tokens.size(); ++I) {
    EXPECT_EQ(Got.Tokens[I].Term, Ref.Tokens[I].Term) << L.Name << " #" << I;
    EXPECT_EQ(Got.Tokens[I].Lexeme, Ref.Tokens[I].Lexeme)
        << L.Name << " #" << I;
    EXPECT_EQ(Got.Tokens[I].Line, Ref.Tokens[I].Line) << L.Name << " #" << I;
    EXPECT_EQ(Got.Tokens[I].Col, Ref.Tokens[I].Col) << L.Name << " #" << I;
  }
  EXPECT_EQ(Got.Error, Ref.Error) << L.Name << ": " << Src;
  EXPECT_EQ(Got.ErrorLine, Ref.ErrorLine) << L.Name;
  EXPECT_EQ(Got.ErrorCol, Ref.ErrorCol) << L.Name;
}

} // namespace

TEST(LexBackends, LanguageCorporaIdentical) {
  // Generated corpora for every benchmark language: the JSON/DOT/Verilog
  // scanners run plain (Plain), Python runs its indentation-inner scanner
  // (IndentInner, which stops at newlines — an unmatchable-byte resume
  // exercised below by scanning the whole multi-line source anyway).
  std::mt19937_64 Rng(20260811);
  for (lang::LangId Id : lang::allLanguages()) {
    lang::Language L = lang::makeLanguage(Id);
    // XML lexes through a ModalScanner (mode-switching driver); its inner
    // scanners are not reachable as a single Scanner, so it is covered by
    // LanguageLexIdentical below rather than here.
    if (!L.Plain && !L.IndentInner)
      continue;
    const Scanner &Base = L.Plain ? *L.Plain : *L.IndentInner;
    for (int File = 0; File < 6; ++File) {
      std::string Src = workload::generateSource(Id, Rng, 400);
      expectAllBackendsAgree(Base, Src);
      expectAllBackendsAgree(Base, corruptText(Rng, Src));
    }
  }
}

TEST(LexBackends, LanguageLexIdentical) {
  // Whole lexer stacks, not single scanners: the XML ModalScanner switches
  // scanners per mode and the Python IndentingScanner scans line fragments
  // through its inner scanner, so both backends must agree end to end —
  // including where and why a corrupted source fails to lex.
  std::mt19937_64 Rng(20260814);
  for (lang::LangId Id : lang::allLanguages()) {
    lang::Language L = lang::makeLanguage(Id);
    for (int File = 0; File < 6; ++File) {
      std::string Src = workload::generateSource(Id, Rng, 400);
      expectLanguageLexAgrees(L, Src);
      expectLanguageLexAgrees(L, corruptText(Rng, Src));
    }
  }
}

TEST(LexBackends, RandomSpecsIdentical) {
  // Random lexer specs over a small alphabet: random literal tokens, an
  // optional character-class token and whitespace skip, so DFA shapes
  // range from a handful of states to dozens — each against scalar.
  std::mt19937_64 Rng(20260812);
  static const char Alpha[] = "abcxyz019.,;()*+-";
  for (int Trial = 0; Trial < 120; ++Trial) {
    Grammar G;
    LexerSpec Spec;
    size_t NumLits = 1 + Rng() % 6;
    for (size_t I = 0; I < NumLits; ++I) {
      size_t Len = 1 + Rng() % 4;
      std::string Lit;
      for (size_t K = 0; K < Len; ++K)
        Lit += Alpha[Rng() % (sizeof(Alpha) - 1)];
      Spec.literal(Lit);
    }
    if (Rng() % 2)
      Spec.token("ID", "[a-c]+");
    if (Rng() % 2)
      Spec.token("NUM", "[0-9]+(\\.[0-9]+)?");
    Spec.skip("WS", "[ \t]+");
    Scanner S(Spec, G);
    if (!S.ok())
      continue; // duplicate literals can collide; shape is irrelevant here
    for (int Input = 0; Input < 8; ++Input) {
      size_t Len = Rng() % 120;
      std::string Text;
      for (size_t K = 0; K < Len; ++K) {
        // Mostly alphabet bytes with occasional arbitrary ones, so both
        // clean tokenization and unmatchable stops occur.
        Text += Rng() % 8 == 0 ? static_cast<char>(Rng() & 0xFF)
                               : Alpha[Rng() % (sizeof(Alpha) - 1)];
        if (Rng() % 5 == 0)
          Text += ' ';
      }
      expectAllBackendsAgree(S, Text);
    }
  }
}

TEST(LexBackends, BlockBoundaryRuns) {
  // Self-loop runs whose lengths bracket the SWAR 8-byte probe several
  // times over: every length from 0 to 40, with the run at the start,
  // middle, and end of the buffer.
  Grammar G;
  LexerSpec Spec;
  Spec.token("ID", "[a-z]+").token("NUM", "[0-9]+").skip("WS", "[ ]+");
  Scanner S(Spec, G);
  ASSERT_TRUE(S.ok());
  for (size_t RunLen = 0; RunLen <= 40; ++RunLen) {
    std::string Run(RunLen, 'q');
    expectAllBackendsAgree(S, Run);
    expectAllBackendsAgree(S, "7 " + Run);
    expectAllBackendsAgree(S, Run + " 7");
    expectAllBackendsAgree(S, "7 " + Run + " 7");
    expectAllBackendsAgree(S, Run + "!tail"); // unmatchable mid-buffer
  }
}

TEST(LexBackends, RetiredBackendsResolveToSwar) {
  // Simd and Auto have no matcher of their own; requesting either must
  // leave the scanner on Swar, never on an unimplemented path.
  Grammar G;
  LexerSpec Spec;
  Spec.token("ID", "[a-z]+").skip("WS", "[ ]+");
  Scanner S(Spec, G);
  ASSERT_TRUE(S.ok());
  EXPECT_EQ(S.lexBackend(), LexBackend::Swar);
  S.setLexBackend(LexBackend::Simd);
  EXPECT_EQ(S.lexBackend(), LexBackend::Swar);
  S.setLexBackend(LexBackend::ScalarPaperFaithful);
  S.setLexBackend(LexBackend::Auto);
  EXPECT_EQ(S.lexBackend(), LexBackend::Swar);
}

TEST(LexBackends, AllBytesInput) {
  // Every byte value, in order and shuffled: matchers index class tables
  // with raw bytes, and sign-extension bugs live exactly here.
  Grammar G;
  LexerSpec Spec;
  Spec.token("ID", "[a-z]+").skip("WS", "[ \t\r\n]+");
  Scanner S(Spec, G);
  ASSERT_TRUE(S.ok());
  std::string All;
  for (int B = 0; B < 256; ++B)
    All += static_cast<char>(B);
  expectAllBackendsAgree(S, All);
  std::mt19937_64 Rng(20260813);
  for (int Trial = 0; Trial < 20; ++Trial) {
    std::shuffle(All.begin(), All.end(), Rng);
    expectAllBackendsAgree(S, All);
  }
}
