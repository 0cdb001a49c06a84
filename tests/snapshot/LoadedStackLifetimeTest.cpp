//===- tests/snapshot/LoadedStackLifetimeTest.cpp ----------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lifetime of snapshot-loaded sim stacks. A load builds every stack node
/// of the cache into one block: tails inside the block are non-owning,
/// and the configs' top-of-stack handles own the block. States a parser
/// adds on top of a loaded cache stack new nodes on loaded ones, and
/// those tails do not own the loaded nodes either. This binary drops the
/// load result and every other copy of the cache, so the parser's own
/// cache is the last owner, keeps parsing, and destroys everything, under
/// both allocation backends. Labeled sanitizer-heavy: ASan reports a read
/// of a freed block.
///
//===----------------------------------------------------------------------===//

#include "core/Parser.h"
#include "lang/Language.h"
#include "snapshot/Snapshot.h"
#include "workload/Generators.h"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

using namespace costar;

namespace {

constexpr lang::LangId Lang = lang::LangId::Python;

std::vector<Word> lexCorpus(const lang::Language &L, uint64_t Seed,
                            uint32_t NumFiles) {
  std::vector<Word> Words;
  for (const std::string &Src :
       workload::generateCorpus(Lang, Seed, NumFiles, 40, 400).Files) {
    lexer::LexResult Lex = L.lex(Src);
    EXPECT_TRUE(Lex.ok());
    Words.push_back(std::move(Lex.Tokens));
  }
  return Words;
}

/// Every stack node reachable from the configs of states [From, To).
std::unordered_set<const SimStackNode *>
stackNodes(const SllCache &C, uint32_t From, uint32_t To) {
  std::unordered_set<const SimStackNode *> Nodes;
  for (uint32_t Id = From; Id < To; ++Id)
    for (const Subparser &Sp : C.state(Id).Configs)
      for (const SimStackNode *N = Sp.Stack.get(); N && Nodes.insert(N).second;
           N = N->Tail.get())
        ;
  return Nodes;
}

} // namespace

class LoadedStackLifetime
    : public ::testing::TestWithParam<adt::AllocBackend> {};

TEST_P(LoadedStackLifetime, ParserCacheIsTheLastOwnerOfLoadedNodes) {
  lang::Language L = lang::makeLanguage(Lang);
  ParseOptions Opts;
  Opts.ReuseCache = true;
  Opts.Alloc = GetParam();

  // Train on one corpus and snapshot the cache.
  std::vector<uint8_t> Bytes;
  {
    Parser Trainer(L.G, L.Start, Opts);
    for (const Word &W : lexCorpus(L, 11, 3))
      (void)Trainer.parse(W);
    Bytes = snapshot::buildSnapshotBytes(L.G, &Trainer.sharedCache(), {});
  }

  // A parser warm-started from the loaded cache; the load result, and
  // with it every other copy of the cache, dies here.
  auto P = std::make_unique<Parser>(L.G, L.Start, Opts);
  uint32_t Loaded;
  std::unordered_set<const SimStackNode *> LoadedNodes;
  {
    snapshot::LoadResult R = snapshot::parseSnapshotBytes(Bytes, L.G);
    ASSERT_TRUE(R.ok()) << R.Err->toString();
    ASSERT_TRUE(P->warmStart(*R.Contents.Cache));
    Loaded = static_cast<uint32_t>(R.Contents.Cache->numStates());
    LoadedNodes = stackNodes(*R.Contents.Cache, 0, Loaded);
  }
  ASSERT_GT(Loaded, 0u);

  // Inputs the snapshot has not seen add states whose stacks stack new
  // nodes on loaded ones. Every result must match a cold parse.
  Parser Cold(L.G, L.Start, Opts);
  std::vector<Word> Unseen = lexCorpus(L, 12, 6);
  for (size_t I = 0; I < Unseen.size(); ++I) {
    if (I == Unseen.size() / 2) {
      const SllCache &C = P->sharedCache();
      ASSERT_GT(C.numStates(), Loaded) << "no input added a state";
      bool Anchored = false;
      for (const SimStackNode *N :
           stackNodes(C, Loaded, static_cast<uint32_t>(C.numStates())))
        Anchored |= N->Tail && LoadedNodes.count(N->Tail.get()) &&
                    !LoadedNodes.count(N);
      EXPECT_TRUE(Anchored) << "no new node stacks on a loaded node";
    }
    Cold.resetCache();
    ParseResult Want = Cold.parse(Unseen[I]);
    ParseResult Got = P->parse(Unseen[I]);
    ASSERT_EQ(Got.kind(), Want.kind()) << I;
    if (Want.accepted()) {
      EXPECT_TRUE(treeEquals(Got.tree(), Want.tree())) << I;
    }
  }

  // The cache dies with its parser; results outlive both.
  ParseResult Last = P->parse(Unseen.front());
  P.reset();
  ASSERT_TRUE(Last.accepted());
  EXPECT_EQ(Last.tree()->yield(), Unseen.front());
}

INSTANTIATE_TEST_SUITE_P(
    AllocBackends, LoadedStackLifetime,
    ::testing::Values(adt::AllocBackend::Arena,
                      adt::AllocBackend::SharedPtrPaperFaithful),
    [](const ::testing::TestParamInfo<adt::AllocBackend> &Info) {
      return std::string(adt::allocBackendName(Info.param));
    });
