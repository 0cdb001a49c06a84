//===- tests/core/DeepTreeTest.cpp ------------------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Any tree the parser accepts must survive every public operation on the
/// result at any depth: yield, equality, printing, node count, and
/// destruction. A 100k-deep JSON array is parsed and walked on a thread
/// with a 256 KiB stack, so a walker that recurses once per nesting level
/// overflows it. On the shared_ptr backend every child handle owns its
/// subtree, so destruction itself is such a walker.
///
//===----------------------------------------------------------------------===//

#include "../SmallStack.h"
#include "core/Parser.h"
#include "lang/Language.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

using namespace costar;
using namespace costar::test;

TEST(DeepTree, WalkersHandle100kDeepJsonOnASmallThreadStack) {
  constexpr size_t Depth = 100000;
  lang::Language L = lang::makeLanguage(lang::LangId::Json);
  lexer::LexResult Lex =
      L.lex(std::string(Depth, '[') + std::string(Depth, ']'));
  ASSERT_TRUE(Lex.ok());
  ASSERT_EQ(Lex.Tokens.size(), 2 * Depth);
  bool Ran = false;
  runOnSmallStack(256 * 1024, [&] {
    Parser P(L.G, L.Start);
    std::optional<ParseResult> A = P.parse(Lex.Tokens);
    std::optional<ParseResult> B = P.parse(Lex.Tokens);
    ASSERT_EQ(A->kind(), ParseResult::Kind::Unique);
    ASSERT_EQ(B->kind(), ParseResult::Kind::Unique);
    EXPECT_EQ(A->tree()->yield(), Lex.Tokens);
    EXPECT_TRUE(Tree::equals(*A->tree(), *B->tree()));
    std::string Printed = A->tree()->toString(L.G);
    EXPECT_GT(Printed.size(), 2 * Depth);
    EXPECT_EQ(A->tree()->nodeCount(), 7 * Depth - 1);
    A.reset();
    B.reset();
    Ran = true;
  });
  EXPECT_TRUE(Ran);
}

TEST(DeepTree, SharedPtrTreeOf100kDeepJsonIsDestroyedOnASmallThreadStack) {
  constexpr size_t Depth = 100000;
  lang::Language L = lang::makeLanguage(lang::LangId::Json);
  lexer::LexResult Lex =
      L.lex(std::string(Depth, '[') + std::string(Depth, ']'));
  ASSERT_TRUE(Lex.ok());
  ParseOptions Opts;
  Opts.Alloc = adt::AllocBackend::SharedPtrPaperFaithful;
  Parser P(L.G, L.Start, Opts);
  std::optional<ParseResult> R = P.parse(Lex.Tokens);
  ASSERT_EQ(R->kind(), ParseResult::Kind::Unique);
  ASSERT_EQ(R->tree()->nodeCount(), 7 * Depth - 1);
  bool Ran = false;
  runOnSmallStack(256 * 1024, [&] {
    R.reset();
    Ran = true;
  });
  EXPECT_TRUE(Ran);
}
