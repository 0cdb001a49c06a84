//===- tests/integration/LanguageParamTest.cpp --------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized cross-language property suite: every test below runs once
/// per (benchmark language, corpus seed) combination, checking the
/// pipeline invariants the evaluation relies on — corpora lex cleanly,
/// parse Unique under both ALL(*) engines with identical trees, parse
/// trees satisfy the derivation relation, and corrupting a token stream
/// never elicits anything other than Unique/Reject (error-free
/// termination on real grammars).
///
//===----------------------------------------------------------------------===//

#include "atn/AtnParser.h"
#include "core/Parser.h"
#include "grammar/Derivation.h"
#include "grammar/LeftRecursion.h"
#include "lang/Language.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <random>

using namespace costar;
using namespace costar::lang;

namespace {

struct LangSeedParam {
  LangSeedParam(LangId Id, uint64_t Seed) : Id(Id), Seed(Seed) {}

  LangId Id;
  // GoogleTest has no printer for this struct, so it spells the raw bytes
  // into every test's listed name; an explicit zero field in place of the
  // implicit padding keeps those names identical from run to run.
  uint32_t Reserved = 0;
  uint64_t Seed;
};
static_assert(sizeof(LangSeedParam) ==
                  sizeof(LangId) + sizeof(uint32_t) + sizeof(uint64_t),
              "LangSeedParam must have no implicit padding bytes");

std::string paramName(const testing::TestParamInfo<LangSeedParam> &Info) {
  return std::string(langName(Info.param.Id)) + "_seed" +
         std::to_string(Info.param.Seed);
}

class LanguageCorpus : public testing::TestWithParam<LangSeedParam> {
protected:
  Language L = makeLanguage(GetParam().Id);
  workload::Corpus C = workload::generateCorpus(
      GetParam().Id, GetParam().Seed, /*NumFiles=*/4, /*MinTokens=*/30,
      /*MaxTokens=*/600);
};

} // namespace

TEST_P(LanguageCorpus, LexesCleanly) {
  for (const std::string &Src : C.Files) {
    lexer::LexResult R = L.lex(Src);
    EXPECT_TRUE(R.ok()) << R.Error << " at line " << R.ErrorLine;
    EXPECT_FALSE(R.Tokens.empty());
  }
}

TEST_P(LanguageCorpus, ParsesUniqueWithCheckedInvariants) {
  ParseOptions Opts;
  Opts.CheckInvariants = true;
  Opts.Budget.MaxSteps = 1u << 24;
  Parser P(L.G, L.Start, Opts);
  for (const std::string &Src : C.Files) {
    lexer::LexResult Lexed = L.lex(Src);
    ASSERT_TRUE(Lexed.ok());
    ParseResult R = P.parse(Lexed.Tokens);
    ASSERT_EQ(R.kind(), ParseResult::Kind::Unique);
    EXPECT_TRUE(checkDerivation(L.G, Symbol::nonterminal(L.Start),
                                Lexed.Tokens, *R.tree()));
    Word Yield = R.tree()->yield();
    EXPECT_EQ(Yield.size(), Lexed.Tokens.size());
  }
}

TEST_P(LanguageCorpus, EnginesAgreeOnTrees) {
  Parser CoStar(L.G, L.Start);
  atn::AtnParser Baseline(L.G, L.Start);
  for (const std::string &Src : C.Files) {
    lexer::LexResult Lexed = L.lex(Src);
    ASSERT_TRUE(Lexed.ok());
    ParseResult RC = CoStar.parse(Lexed.Tokens);
    ParseResult RA = Baseline.parse(Lexed.Tokens);
    ASSERT_EQ(RC.kind(), ParseResult::Kind::Unique);
    ASSERT_EQ(RA.kind(), ParseResult::Kind::Unique);
    EXPECT_TRUE(treeEquals(RC.tree(), RA.tree()));
  }
}

TEST_P(LanguageCorpus, CorruptedStreamsNeverError) {
  // Theorem 5.8 exercised on the real benchmark grammars: arbitrary token
  // corruption yields Unique or Reject, never Error (and never a hang —
  // MaxSteps guards).
  std::mt19937_64 Rng(GetParam().Seed * 31 + 7);
  ParseOptions Opts;
  Opts.Budget.MaxSteps = 1u << 24;
  Parser P(L.G, L.Start, Opts);
  for (const std::string &Src : C.Files) {
    lexer::LexResult Lexed = L.lex(Src);
    ASSERT_TRUE(Lexed.ok());
    Word W = Lexed.Tokens;
    for (int Mutation = 0; Mutation < 6 && !W.empty(); ++Mutation) {
      size_t I = Rng() % W.size();
      switch (Rng() % 3) {
      case 0:
        W.erase(W.begin() + I);
        break;
      case 1:
        W.insert(W.begin() + I, W[Rng() % W.size()]);
        break;
      default:
        W[I].Term = static_cast<TerminalId>(Rng() % L.G.numTerminals());
        break;
      }
      ParseResult R = P.parse(W);
      EXPECT_NE(R.kind(), ParseResult::Kind::Error) << L.Name;
      // Ambig would mean the benchmark grammar is ambiguous after all.
      EXPECT_NE(R.kind(), ParseResult::Kind::Ambig) << L.Name;
    }
  }
}

TEST_P(LanguageCorpus, CacheReuseMatchesFreshCache) {
  ParseOptions Reuse;
  Reuse.ReuseCache = true;
  Parser Fresh(L.G, L.Start);
  Parser Warm(L.G, L.Start, Reuse);
  for (const std::string &Src : C.Files) {
    lexer::LexResult Lexed = L.lex(Src);
    ASSERT_TRUE(Lexed.ok());
    ParseResult RF = Fresh.parse(Lexed.Tokens);
    ParseResult RW = Warm.parse(Lexed.Tokens);
    ASSERT_EQ(RF.kind(), RW.kind());
    EXPECT_TRUE(treeEquals(RF.tree(), RW.tree()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLanguages, LanguageCorpus,
    testing::Values(LangSeedParam{LangId::Json, 1},
                    LangSeedParam{LangId::Json, 2},
                    LangSeedParam{LangId::Xml, 1},
                    LangSeedParam{LangId::Xml, 2},
                    LangSeedParam{LangId::Dot, 1},
                    LangSeedParam{LangId::Dot, 2},
                    LangSeedParam{LangId::Python, 1},
                    LangSeedParam{LangId::Python, 2}),
    paramName);

//===----------------------------------------------------------------------===//
// Seed-parameterized random-grammar sweep
//===----------------------------------------------------------------------===//

namespace {

class RandomGrammarSweep : public testing::TestWithParam<uint64_t> {};

} // namespace

#include "../RandomGrammar.h"
#include "grammar/Sampler.h"

TEST_P(RandomGrammarSweep, RoundTripAndOracleAgreement) {
  std::mt19937_64 Rng(GetParam());
  ParseOptions Opts;
  Opts.CheckInvariants = true;
  Opts.Budget.MaxSteps = 1u << 20;
  for (int Trial = 0; Trial < 12; ++Trial) {
    Grammar G = costar::test::randomNonLeftRecursiveGrammar(Rng);
    GrammarAnalysis A(G, 0);
    DerivationSampler Sampler(A, Rng());
    for (int WordTrial = 0; WordTrial < 4; ++WordTrial) {
      Word W = Sampler.sampleWord(0, 5);
      if (W.size() > 24)
        continue;
      ParseResult R = parse(G, 0, W, Opts);
      ASSERT_TRUE(R.accepted()) << G.toString();
      EXPECT_TRUE(
          checkDerivation(G, Symbol::nonterminal(0), W, *R.tree()));
      if (W.size() <= 10) {
        uint64_t Trees = countParseTrees(G, 0, W, 2);
        EXPECT_EQ(R.kind() == ParseResult::Kind::Unique, Trees == 1);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGrammarSweep,
                         testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u,
                                         88u));
