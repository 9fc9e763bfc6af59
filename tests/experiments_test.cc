// Tests for the experiment fixture and sweep runners.
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "experiments/fixture.h"
#include "experiments/runner.h"
#include "search/engine.h"
#include "search/scorer.h"
#include "util/hash.h"

namespace toppriv::experiments {
namespace {

FixtureConfig TinyConfig() {
  FixtureConfig config;
  config.corpus_params.num_docs = 150;
  config.corpus_params.mean_doc_length = 60;
  config.corpus_params.tail_vocab_size = 300;
  config.workload_params.num_queries = 12;
  config.lda_iterations = 20;
  config.cache_dir = ::testing::TempDir() + "/toppriv_fixture_cache";
  return config;
}

TEST(FixtureConfigTest, EnvOverrides) {
  ::setenv("TOPPRIV_DOCS", "123", 1);
  ::setenv("TOPPRIV_QUERIES", "17", 1);
  ::setenv("TOPPRIV_CACHE_DIR", "/tmp/somewhere", 1);
  FixtureConfig config = FixtureConfig::FromEnv();
  EXPECT_EQ(config.corpus_params.num_docs, 123u);
  EXPECT_EQ(config.workload_params.num_queries, 17u);
  EXPECT_EQ(config.cache_dir, "/tmp/somewhere");
  ::unsetenv("TOPPRIV_DOCS");
  ::unsetenv("TOPPRIV_QUERIES");
  ::unsetenv("TOPPRIV_CACHE_DIR");
}

TEST(FixtureConfigTest, InvalidEnvFallsBack) {
  ::setenv("TOPPRIV_DOCS", "not-a-number", 1);
  FixtureConfig config = FixtureConfig::FromEnv();
  EXPECT_EQ(config.corpus_params.num_docs, 1500u);
  ::unsetenv("TOPPRIV_DOCS");
}

TEST(FixtureTest, PaperModelSizes) {
  EXPECT_EQ(PaperModelSizes(),
            (std::vector<size_t>{50, 100, 150, 200, 250, 300}));
  EXPECT_EQ(ExperimentFixture::ModelName(200), "LDA200");
  EXPECT_EQ(ExperimentFixture::ModelName(50), "LDA050");
}

TEST(FixtureTest, BuildsConsistentState) {
  ExperimentFixture fixture(TinyConfig());
  EXPECT_EQ(fixture.corpus().num_documents(), 150u);
  EXPECT_EQ(fixture.workload().size(), 12u);
  EXPECT_EQ(fixture.index().num_documents(), 150u);
  const topicmodel::LdaModel& model = fixture.model(15);
  EXPECT_EQ(model.num_topics(), 15u);
  EXPECT_EQ(model.vocab_size(), fixture.corpus().vocabulary_size());
  // Second call returns the same object (memoized).
  EXPECT_EQ(&fixture.model(15), &model);
}

// The shard fields and MakeEngine's 4-argument overload remain only for
// callers that still name them: 1 is accepted, anything else dies rather
// than being silently ignored.
TEST(FixtureTest, ShardShimAcceptsOnlyOne) {
  ExperimentFixture fixture(TinyConfig());
  auto engine = fixture.MakeEngine(search::MakeBm25Scorer(), 1, 1,
                                   search::EvalStrategy::kTAAT);
  EXPECT_NE(dynamic_cast<search::SearchEngine*>(engine.get()), nullptr);
  EXPECT_DEATH(fixture.MakeEngine(search::MakeBm25Scorer(), 2, 1,
                                  std::nullopt),
               "num_shards");
  FixtureConfig config = TinyConfig();
  config.shard_threads = 4;
  EXPECT_DEATH(ExperimentFixture{config}, "shard_threads");
}

TEST(FixtureTest, ModelCacheRoundtrip) {
  FixtureConfig config = TinyConfig();
  std::string serialized_first;
  {
    ExperimentFixture fixture(config);
    serialized_first = fixture.model(12).Serialize();
  }
  {
    // Fresh fixture: must load the cached model, not retrain differently.
    ExperimentFixture fixture(config);
    EXPECT_EQ(fixture.model(12).Serialize(), serialized_first);
  }
}

TEST(FixtureTest, ModelCacheMissesWhenTheCorpusChanges) {
  // seed_mass reshapes the generated corpus without changing its
  // vocabulary size (the only check at load time), so only a cache key on
  // the corpus itself tells the two models apart: the second fixture must
  // train its own model, not load the first one's.
  FixtureConfig first = TinyConfig();
  first.cache_dir = ::testing::TempDir() + "/toppriv_fixture_cache_seedmass";
  FixtureConfig second = first;
  second.corpus_params.seed_mass = 0.5;
  FixtureConfig fresh = second;
  fresh.cache_dir = ::testing::TempDir() + "/toppriv_fixture_cache_fresh";
  std::filesystem::remove_all(first.cache_dir);
  std::filesystem::remove_all(fresh.cache_dir);

  std::string first_model;
  {
    ExperimentFixture fixture(first);
    first_model = fixture.model(12).Serialize();
  }
  ExperimentFixture shared(second);
  ExperimentFixture alone(fresh);
  ASSERT_EQ(shared.corpus().vocabulary_size(),
            ExperimentFixture(first).corpus().vocabulary_size());
  // EXPECT_TRUE, not EXPECT_EQ: a mismatch would print two model blobs.
  const std::string second_model = shared.model(12).Serialize();
  EXPECT_TRUE(second_model != first_model) << "loaded the stale model";
  EXPECT_TRUE(second_model == alone.model(12).Serialize());
}

TEST(FixtureTest, ModelCacheMissesAfterAVersionBump) {
  // The fixture writes its model exactly where ModelCachePath puts it at
  // kModelCacheVersion; bumping the version moves the path to one nothing
  // has written, so code of the next version retrains instead of loading.
  FixtureConfig config = TinyConfig();
  config.cache_dir = ::testing::TempDir() + "/toppriv_fixture_cache_version";
  std::filesystem::remove_all(config.cache_dir);
  ExperimentFixture fixture(config);
  fixture.model(12);
  const std::string current =
      ModelCachePath(config.cache_dir, fixture.corpus(), config.lda_iterations,
                     12, kModelCacheVersion);
  const std::string bumped =
      ModelCachePath(config.cache_dir, fixture.corpus(), config.lda_iterations,
                     12, kModelCacheVersion + 1);
  EXPECT_TRUE(std::filesystem::exists(current)) << current;
  EXPECT_NE(bumped, current);
  EXPECT_FALSE(std::filesystem::exists(bumped)) << bumped;
}

// Every trained-model digest the model cache has been keyed at, oldest
// first: FNV-1a over the serialized bytes of TinyConfig's 12-topic model.
// A change to the trainer, its seeding or LdaModel's serialization moves
// the digest, and must also bump kModelCacheVersion so that caches written
// by the old code miss: append a row at the new version, and never edit a
// row in place.
struct TrainedModelGolden {
  uint64_t version;
  uint64_t digest;
};
constexpr TrainedModelGolden kTrainedModelGoldens[] = {
    {2, 0xd2548e331cc2731bull},
};

TEST(FixtureTest, TrainedModelGoldenMovesWithTheCacheVersion) {
  FixtureConfig config = TinyConfig();
  config.cache_dir = ::testing::TempDir() + "/toppriv_fixture_cache_golden";
  std::filesystem::remove_all(config.cache_dir);  // train, never load
  ExperimentFixture fixture(config);
  uint64_t h = util::kFnv1aOffsetBasis;
  for (unsigned char c : fixture.model(12).Serialize()) {
    h = util::Fnv1aStep(h, c);
  }
  const size_t rows = std::size(kTrainedModelGoldens);
  for (size_t i = 1; i < rows; ++i) {
    EXPECT_LT(kTrainedModelGoldens[i - 1].version,
              kTrainedModelGoldens[i].version);
    EXPECT_NE(kTrainedModelGoldens[i - 1].digest,
              kTrainedModelGoldens[i].digest);
  }
  const TrainedModelGolden& current = kTrainedModelGoldens[rows - 1];
  EXPECT_EQ(current.version, kModelCacheVersion)
      << "kModelCacheVersion moved without a trained-model golden row";
  EXPECT_EQ(h, current.digest)
      << std::hex << "trained model digest 0x" << h
      << ": the trainer's output changed; bump kModelCacheVersion and "
         "append a row";
}

TEST(RunnerTest, TopPrivCellProducesSaneMetrics) {
  ExperimentFixture fixture(TinyConfig());
  core::PrivacySpec spec;
  spec.epsilon1 = 0.05;
  spec.epsilon2 = 0.02;
  TopPrivCell cell = RunTopPrivCell(fixture, 15, spec);
  EXPECT_EQ(cell.num_topics, 15u);
  EXPECT_GE(cell.cycle_length, 1.0);
  EXPECT_GE(cell.mask_pct, 0.0);
  EXPECT_GE(cell.exposure_before_pct, cell.exposure_pct);
  EXPECT_GE(cell.satisfied_fraction, 0.5);
  EXPECT_GT(cell.generation_seconds, 0.0);
  EXPECT_GE(cell.num_relevant_topics, 0.0);
}

TEST(RunnerTest, PdxCellProducesSaneMetrics) {
  ExperimentFixture fixture(TinyConfig());
  PdxCell cell = RunPdxCell(fixture, 15, 0.05, 4.0);
  EXPECT_EQ(cell.num_topics, 15u);
  EXPECT_DOUBLE_EQ(cell.expansion_factor, 4.0);
  EXPECT_GT(cell.decoys, 0.0);
  EXPECT_GE(cell.exposure_pct, 0.0);
}

TEST(RunnerTest, TopPrivBeatsPdxAtMatchedBudget) {
  // The Fig. 5 headline: at equal word budgets TopPriv exposes less than
  // PDX. Checked at expansion/cycle 4 on a small fixture.
  ExperimentFixture fixture(TinyConfig());
  core::PrivacySpec spec;
  spec.epsilon1 = 0.05;
  spec.epsilon2 = 0.01;
  spec.fixed_ghost_count = 3;  // cycle length 4 == expansion factor 4
  TopPrivCell ours = RunTopPrivCell(fixture, 15, spec);
  PdxCell theirs = RunPdxCell(fixture, 15, 0.05, 4.0);
  EXPECT_LT(ours.exposure_pct, theirs.exposure_pct);
}

}  // namespace
}  // namespace toppriv::experiments
