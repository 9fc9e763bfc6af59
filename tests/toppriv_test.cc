// Unit and property tests for the TopPriv core: belief bookkeeping, the
// privacy model and the ghost-query generation algorithm.
#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "search/engine.h"
#include "search/eval.h"
#include "search/scorer.h"
#include "tests/test_helpers.h"
#include "topicmodel/inference.h"
#include "toppriv/belief.h"
#include "toppriv/client.h"
#include "toppriv/ghost_generator.h"
#include "toppriv/privacy_spec.h"

namespace toppriv::core {
namespace {

using toppriv::testing::World;

// ----------------------------------------------------------- PrivacySpec --

TEST(PrivacySpecTest, DefaultIsValid) {
  PrivacySpec spec;
  EXPECT_TRUE(spec.Validate().ok());
  EXPECT_DOUBLE_EQ(spec.epsilon1, 0.05);
  EXPECT_DOUBLE_EQ(spec.epsilon2, 0.01);
}

TEST(PrivacySpecTest, RejectsEpsilon2AboveEpsilon1) {
  // Paper Section IV-A: epsilon1 >= epsilon2 is required, otherwise null
  // ghost queries could satisfy the model.
  PrivacySpec spec;
  spec.epsilon1 = 0.01;
  spec.epsilon2 = 0.05;
  EXPECT_FALSE(spec.Validate().ok());
}

TEST(PrivacySpecTest, RejectsOutOfRangeThresholds) {
  PrivacySpec spec;
  spec.epsilon1 = 0.0;
  EXPECT_FALSE(spec.Validate().ok());
  spec.epsilon1 = 1.5;
  EXPECT_FALSE(spec.Validate().ok());
  spec.epsilon1 = 0.05;
  spec.epsilon2 = -0.1;
  EXPECT_FALSE(spec.Validate().ok());
}

TEST(PrivacySpecTest, RejectsBadLengthMultipliers) {
  PrivacySpec spec;
  spec.min_length_mult = 0.0;
  EXPECT_FALSE(spec.Validate().ok());
  spec.min_length_mult = 2.0;
  spec.max_length_mult = 1.0;
  EXPECT_FALSE(spec.Validate().ok());
}

TEST(PrivacySpecTest, EqualThresholdsAllowed) {
  PrivacySpec spec;
  spec.epsilon1 = spec.epsilon2 = 0.02;
  EXPECT_TRUE(spec.Validate().ok());
}

// ---------------------------------------------------------------- Belief --

TEST(BeliefTest, BoostIsPosteriorMinusPrior) {
  const auto& world = World();
  std::vector<double> posterior(world.model.num_topics(), 0.0);
  posterior[0] = 1.0;
  BeliefProfile profile = MakeBeliefProfile(world.model, posterior);
  EXPECT_NEAR(profile.boost[0], 1.0 - world.model.prior()[0], 1e-12);
  EXPECT_NEAR(profile.boost[1], -world.model.prior()[1], 1e-12);
}

TEST(BeliefTest, ExtractIntentionThreshold) {
  BeliefProfile profile;
  profile.boost = {0.10, 0.02, 0.06, -0.01};
  EXPECT_EQ(ExtractIntention(profile, 0.05),
            (std::vector<topicmodel::TopicId>{0, 2}));
  EXPECT_EQ(ExtractIntention(profile, 0.5).size(), 0u);
  // Strict inequality: boost exactly at the threshold is NOT relevant.
  profile.boost = {0.05};
  EXPECT_TRUE(ExtractIntention(profile, 0.05).empty());
}

TEST(BeliefTest, ExposureAndMask) {
  std::vector<double> boost = {0.10, 0.02, 0.06, -0.01};
  std::vector<topicmodel::TopicId> intention = {0, 2};
  EXPECT_DOUBLE_EQ(Exposure(boost, intention), 0.10);
  EXPECT_DOUBLE_EQ(MaskLevel(boost, intention), 0.02);
  EXPECT_DOUBLE_EQ(Exposure(boost, {}), 0.0);
  // Mask over all-negative outsiders is the (negative) max.
  EXPECT_DOUBLE_EQ(MaskLevel({-0.1, -0.2}, {}), -0.1);
}

TEST(BeliefTest, BestRankOfIntention) {
  std::vector<double> boost = {0.10, 0.02, 0.06, -0.01};
  // Ranking: t0 (0.10), t2 (0.06), t1 (0.02), t3 (-0.01).
  EXPECT_EQ(BestRankOfIntention(boost, {0}), 1u);
  EXPECT_EQ(BestRankOfIntention(boost, {2}), 2u);
  EXPECT_EQ(BestRankOfIntention(boost, {1, 2}), 2u);
  EXPECT_EQ(BestRankOfIntention(boost, {3}), 4u);
  EXPECT_EQ(BestRankOfIntention(boost, {}), 0u);
}

// --------------------------------------------------------- GhostGenerator --

class GhostGeneratorTest : public ::testing::Test {
 protected:
  GhostGeneratorTest()
      : inferencer_(World().model) {}

  QueryCycle ProtectQuery(size_t query_index, const PrivacySpec& spec,
                          GeneratorOptions options = {}, uint64_t seed = 5) {
    GhostQueryGenerator generator(World().model, inferencer_, spec, options);
    util::Rng rng(seed);
    return generator.Protect(World().workload[query_index].term_ids, &rng);
  }

  topicmodel::LdaInferencer inferencer_;
};

TEST_F(GhostGeneratorTest, CycleContainsGenuineQueryAtUserIndex) {
  PrivacySpec spec;
  QueryCycle cycle = ProtectQuery(0, spec);
  ASSERT_LT(cycle.user_index, cycle.queries.size());
  EXPECT_EQ(cycle.user_query(), World().workload[0].term_ids);
}

TEST_F(GhostGeneratorTest, SuppressesExposureBelowEpsilon2) {
  PrivacySpec spec;  // (5%, 1%)
  size_t satisfied = 0, with_intent = 0;
  for (size_t qi = 0; qi < 15; ++qi) {
    QueryCycle cycle = ProtectQuery(qi, spec);
    if (cycle.intention.empty()) continue;
    ++with_intent;
    EXPECT_GT(cycle.exposure_before, spec.epsilon1);
    if (cycle.met_epsilon2) {
      ++satisfied;
      EXPECT_LE(cycle.exposure_after, spec.epsilon2 + 1e-12);
    }
    // Exposure must never increase.
    EXPECT_LE(cycle.exposure_after, cycle.exposure_before + 1e-12);
  }
  ASSERT_GT(with_intent, 5u);
  // The paper reports epsilon2=1% is met down to ~3%; most queries succeed.
  EXPECT_GE(satisfied * 3, with_intent * 2);
}

TEST_F(GhostGeneratorTest, GhostsOmitGenuineTerms) {
  // Step 3b picks ghost words from masking topics only; the algorithm never
  // needs genuine search terms in ghosts ("qg does not need to include any
  // of the genuine search terms in qu"). With coherent topics the overlap
  // should be rare; assert it stays small rather than zero, since a general
  // word can legitimately appear in a masking topic.
  PrivacySpec spec;
  size_t overlap = 0, ghost_terms = 0;
  for (size_t qi = 0; qi < 10; ++qi) {
    QueryCycle cycle = ProtectQuery(qi, spec);
    std::set<text::TermId> genuine(cycle.user_query().begin(),
                                   cycle.user_query().end());
    for (size_t i = 0; i < cycle.queries.size(); ++i) {
      if (i == cycle.user_index) continue;
      for (text::TermId w : cycle.queries[i]) {
        ++ghost_terms;
        if (genuine.count(w)) ++overlap;
      }
    }
  }
  ASSERT_GT(ghost_terms, 0u);
  EXPECT_LT(static_cast<double>(overlap) / static_cast<double>(ghost_terms),
            0.1);
}

TEST_F(GhostGeneratorTest, GhostLengthsWithinMultipliers) {
  PrivacySpec spec;
  spec.min_length_mult = 0.5;
  spec.max_length_mult = 2.0;
  for (size_t qi = 0; qi < 8; ++qi) {
    QueryCycle cycle = ProtectQuery(qi, spec);
    size_t qu_len = cycle.user_query().size();
    for (size_t i = 0; i < cycle.queries.size(); ++i) {
      if (i == cycle.user_index) continue;
      size_t len = cycle.queries[i].size();
      EXPECT_GE(len + 1, static_cast<size_t>(0.5 * qu_len));  // rounding slack
      EXPECT_LE(len, static_cast<size_t>(2.0 * qu_len) + 1);
    }
  }
}

TEST_F(GhostGeneratorTest, MaskingTopicsAvoidIntention) {
  PrivacySpec spec;
  for (size_t qi = 0; qi < 8; ++qi) {
    QueryCycle cycle = ProtectQuery(qi, spec);
    std::set<topicmodel::TopicId> intent(cycle.intention.begin(),
                                         cycle.intention.end());
    std::set<topicmodel::TopicId> used;
    for (topicmodel::TopicId t : cycle.masking_topics) {
      EXPECT_FALSE(intent.count(t)) << "masking topic inside U";
      EXPECT_TRUE(used.insert(t).second) << "masking topic reused";
    }
  }
}

TEST_F(GhostGeneratorTest, DeterministicGivenSeed) {
  PrivacySpec spec;
  // Use a query that actually needs ghosts, so the seed matters.
  size_t qi = 0;
  while (qi < World().workload.size() &&
         ProtectQuery(qi, spec, {}, 77).num_ghosts() == 0) {
    ++qi;
  }
  ASSERT_LT(qi, World().workload.size());
  QueryCycle a = ProtectQuery(qi, spec, {}, 77);
  QueryCycle b = ProtectQuery(qi, spec, {}, 77);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.user_index, b.user_index);
  QueryCycle c = ProtectQuery(qi, spec, {}, 78);
  // Different randomness virtually always yields a different cycle.
  EXPECT_NE(a.queries, c.queries);
}

TEST_F(GhostGeneratorTest, TerminatesUnderExtremeEpsilon2) {
  // epsilon2 ~ 0 forces the loop to either drive the boost to ~zero (enough
  // ghost dilution can push the Eq. 2 posterior below the prior) or exhaust
  // all masking topics; either way it must terminate with at most |T\U|
  // ghosts (paper: "the algorithm is guaranteed to terminate").
  PrivacySpec spec;
  spec.epsilon1 = 0.05;
  spec.epsilon2 = 1e-9;
  QueryCycle cycle = ProtectQuery(0, spec);
  EXPECT_LE(cycle.length(), World().model.num_topics() + 1);
  if (!cycle.met_epsilon2) {
    // Exhausted path: every non-intention topic was used or rejected.
    EXPECT_EQ(cycle.masking_topics.size() + cycle.rejected_topics.size() +
                  cycle.intention.size(),
              World().model.num_topics());
  }
}

TEST_F(GhostGeneratorTest, FixedGhostCountMode) {
  PrivacySpec spec;
  spec.fixed_ghost_count = 7;
  QueryCycle cycle = ProtectQuery(1, spec);
  EXPECT_EQ(cycle.num_ghosts(), 7u);
  EXPECT_EQ(cycle.length(), 8u);
}

TEST_F(GhostGeneratorTest, FixedCountLargerThanTopics) {
  // Forces the masking-topic reset path.
  PrivacySpec spec;
  spec.fixed_ghost_count = World().model.num_topics() + 5;
  QueryCycle cycle = ProtectQuery(1, spec);
  EXPECT_EQ(cycle.num_ghosts(), World().model.num_topics() + 5);
}

TEST_F(GhostGeneratorTest, NoIntentionMeansNoGhosts) {
  // With a huge epsilon1 no topic is relevant, so the loop never runs and
  // the cycle is the bare user query.
  PrivacySpec spec;
  spec.epsilon1 = 0.9;
  spec.epsilon2 = 0.9;
  QueryCycle cycle = ProtectQuery(0, spec);
  EXPECT_TRUE(cycle.intention.empty());
  EXPECT_EQ(cycle.length(), 1u);
  EXPECT_TRUE(cycle.met_epsilon2);
}

TEST_F(GhostGeneratorTest, RejectionTestRecordsIneffectiveTopics) {
  PrivacySpec spec;
  spec.epsilon2 = 0.002;  // hard target forces many attempts
  size_t total_rejected = 0;
  for (size_t qi = 0; qi < 6; ++qi) {
    QueryCycle cycle = ProtectQuery(qi, spec);
    total_rejected += cycle.rejected_topics.size();
    // Rejected topics must not appear among masking topics.
    std::set<topicmodel::TopicId> used(cycle.masking_topics.begin(),
                                       cycle.masking_topics.end());
    for (topicmodel::TopicId t : cycle.rejected_topics) {
      EXPECT_FALSE(used.count(t));
    }
  }
  EXPECT_GT(total_rejected, 0u);  // at least some topics are ineffective
}

TEST_F(GhostGeneratorTest, AblationWithoutRejectionStillTerminates) {
  PrivacySpec spec;
  GeneratorOptions options;
  options.use_rejection_test = false;
  QueryCycle cycle = ProtectQuery(0, spec, options);
  EXPECT_LE(cycle.exposure_after, cycle.exposure_before + 1e-9);
}

TEST_F(GhostGeneratorTest, AblationIncoherentGhosts) {
  PrivacySpec spec;
  GeneratorOptions options;
  options.coherent_ghosts = false;
  QueryCycle cycle = ProtectQuery(0, spec, options);
  EXPECT_GE(cycle.length(), 1u);
}

TEST_F(GhostGeneratorTest, FixedGhostLengthOption) {
  PrivacySpec spec;
  GeneratorOptions options;
  options.fixed_ghost_length = 5;
  QueryCycle cycle = ProtectQuery(0, spec, options);
  for (size_t i = 0; i < cycle.queries.size(); ++i) {
    if (i == cycle.user_index) continue;
    EXPECT_EQ(cycle.queries[i].size(), 5u);
  }
}

TEST_F(GhostGeneratorTest, SharedCdfTableMatchesOwnedTable) {
  // The serving driver lends one TopicCdfTable to every session; cycles
  // must be identical to a generator that built its own table.
  PrivacySpec spec;
  TopicCdfTable table(World().model);
  GeneratorOptions shared;
  shared.shared_topic_cdfs = &table;
  QueryCycle a = ProtectQuery(1, spec, shared, 99);
  QueryCycle b = ProtectQuery(1, spec, {}, 99);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.user_index, b.user_index);
  EXPECT_EQ(a.masking_topics, b.masking_topics);
}

TEST_F(GhostGeneratorTest, CachedGhostsHonorRequestedLength) {
  // Regression: the ghost cache used to replay the memoized ghost VERBATIM,
  // ignoring the requested length — so a cycle for a short |qu| could carry
  // ghosts sized for a long one (an adversary-visible marker), and every
  // cycle reused the byte-identical ghost, weakening the Section IV-D
  // randomized-choice defense. Cache hits must now honor the request:
  // truncate when shorter, extend (prefix-stable) when longer.
  PrivacySpec spec;
  std::map<topicmodel::TopicId, std::vector<text::TermId>> cache;

  GeneratorOptions short_options;
  short_options.fixed_ghost_length = 3;
  short_options.ghost_cache = &cache;
  GhostQueryGenerator short_gen(World().model, inferencer_, spec,
                                short_options);
  util::Rng rng(41);
  QueryCycle first = short_gen.Protect(World().workload[0].term_ids, &rng);
  ASSERT_GT(first.num_ghosts(), 0u);
  for (size_t i = 0; i < first.queries.size(); ++i) {
    if (i == first.user_index) continue;
    EXPECT_EQ(first.queries[i].size(), 3u);
  }

  // Same session cache, different |qg| request (a different |qu| draws a
  // different multiplier; fixed lengths make the assertion exact).
  GeneratorOptions long_options;
  long_options.fixed_ghost_length = 7;
  long_options.ghost_cache = &cache;
  GhostQueryGenerator long_gen(World().model, inferencer_, spec,
                               long_options);
  QueryCycle second = long_gen.Protect(World().workload[0].term_ids, &rng);
  ASSERT_GT(second.num_ghosts(), 0u);
  for (size_t i = 0; i < second.queries.size(); ++i) {
    if (i == second.user_index) continue;
    const std::vector<text::TermId>& ghost = second.queries[i];
    // Correctly sized for THIS cycle, not replayed at the cached size.
    EXPECT_EQ(ghost.size(), 7u);
  }
  // Ghost sets must differ between the cycles (different sizes alone
  // guarantees non-identity; check explicitly for clarity).
  for (size_t i = 0; i < second.queries.size(); ++i) {
    if (i == second.user_index) continue;
    for (size_t j = 0; j < first.queries.size(); ++j) {
      if (j == first.user_index) continue;
      EXPECT_NE(second.queries[i], first.queries[j]);
    }
  }
}

TEST_F(GhostGeneratorTest, CachedGhostExtensionIsPrefixStable) {
  // The cover-story property behind the cache: later, longer requests for
  // the same masking topic must extend the memoized ghost, not resample it
  // from scratch — and shorter requests take a prefix of it.
  PrivacySpec spec;
  std::map<topicmodel::TopicId, std::vector<text::TermId>> cache;
  GeneratorOptions options;
  options.fixed_ghost_length = 4;
  options.ghost_cache = &cache;
  GhostQueryGenerator generator(World().model, inferencer_, spec, options);
  util::Rng rng(43);
  QueryCycle cycle = generator.Protect(World().workload[0].term_ids, &rng);
  ASSERT_GT(cycle.num_ghosts(), 0u);
  std::map<topicmodel::TopicId, std::vector<text::TermId>> snapshot = cache;
  ASSERT_FALSE(snapshot.empty());

  GeneratorOptions longer;
  longer.fixed_ghost_length = 9;
  longer.ghost_cache = &cache;
  GhostQueryGenerator long_gen(World().model, inferencer_, spec, longer);
  QueryCycle second = long_gen.Protect(World().workload[0].term_ids, &rng);
  ASSERT_GT(second.num_ghosts(), 0u);
  for (const auto& [topic, old_ghost] : snapshot) {
    const std::vector<text::TermId>& now = cache.at(topic);
    ASSERT_GE(now.size(), old_ghost.size());
    EXPECT_TRUE(std::equal(old_ghost.begin(), old_ghost.end(), now.begin()))
        << "topic " << topic << " ghost was resampled, not extended";
  }
}

// ------------------------------------------------------ Sampler cycle band --

struct CycleStats {
  double ghosts = 0.0;          // mean ghosts per cycle
  double met_fraction = 0.0;    // share of cycles with met_epsilon2
  double exposure_after = 0.0;  // mean exposure_after
};

/// Protects every World() workload query once, with inference and ghost
/// choice both seeded by `seed`.
CycleStats ProtectWorkload(double epsilon2, uint64_t seed) {
  const auto& world = World();
  topicmodel::InferenceOptions options;
  options.seed = seed;
  const topicmodel::LdaInferencer inferencer(world.model, options);
  PrivacySpec spec;
  spec.epsilon2 = epsilon2;
  GhostQueryGenerator generator(world.model, inferencer, spec);
  util::Rng rng(seed);
  CycleStats stats;
  for (const auto& q : world.workload) {
    const QueryCycle cycle = generator.Protect(q.term_ids, &rng);
    stats.ghosts += static_cast<double>(cycle.num_ghosts());
    stats.met_fraction += cycle.met_epsilon2 ? 1.0 : 0.0;
    stats.exposure_after += cycle.exposure_after;
  }
  const auto n = static_cast<double>(world.workload.size());
  stats.ghosts /= n;
  stats.met_fraction /= n;
  stats.exposure_after /= n;
  return stats;
}

TEST(SamplerCycleBandTest, CycleStatsStayWithinTheReferenceSpread) {
  // The library sampler draws differently from the exact reference sampler
  // (tests/reference_sampler.h) but must protect cycles as well. Per-seed
  // ProtectWorkload figures of the reference, recorded with it as the
  // generator's inferencer (it was LdaInferencer's sampler before the
  // sparse-bucket split; the generator takes only an LdaInferencer, so
  // they are constants here). Over the same 8 seeds, the sampler's mean of
  // each statistic must lie within the reference's per-seed [min, max].
  // epsilon2 = 1% is the paper's default and always met; 0.2% is tight
  // enough that some cycles exhaust their masking topics first.
  struct Band {
    double epsilon2;
    CycleStats reference[8];
  };
  const Band kBands[] = {
      {0.01,
       {{8.125, 1.0, 0.007796},
        {8.075, 1.0, 0.007765},
        {7.925, 1.0, 0.007912},
        {7.900, 1.0, 0.007910},
        {7.775, 1.0, 0.007888},
        {8.025, 1.0, 0.007879},
        {7.750, 1.0, 0.007648},
        {7.800, 1.0, 0.007879}}},
      {0.002,
       {{18.175, 0.975, 0.001564},
        {18.650, 0.975, 0.001590},
        {18.325, 0.950, 0.001573},
        {18.875, 0.975, 0.001583},
        {18.700, 0.975, 0.001583},
        {18.775, 1.000, 0.001545},
        {18.475, 1.000, 0.001538},
        {18.775, 0.950, 0.001546}}},
  };
  for (const Band& band : kBands) {
    SCOPED_TRACE(band.epsilon2);
    CycleStats mean;
    CycleStats lo = band.reference[0];
    CycleStats hi = band.reference[0];
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      const CycleStats stats = ProtectWorkload(band.epsilon2, seed);
      mean.ghosts += stats.ghosts / 8;
      mean.met_fraction += stats.met_fraction / 8;
      mean.exposure_after += stats.exposure_after / 8;
      const CycleStats& ref = band.reference[seed - 1];
      lo = {std::min(lo.ghosts, ref.ghosts),
            std::min(lo.met_fraction, ref.met_fraction),
            std::min(lo.exposure_after, ref.exposure_after)};
      hi = {std::max(hi.ghosts, ref.ghosts),
            std::max(hi.met_fraction, ref.met_fraction),
            std::max(hi.exposure_after, ref.exposure_after)};
    }
    EXPECT_GE(mean.ghosts, lo.ghosts);
    EXPECT_LE(mean.ghosts, hi.ghosts);
    EXPECT_GE(mean.met_fraction, lo.met_fraction);
    EXPECT_LE(mean.met_fraction, hi.met_fraction);
    EXPECT_GE(mean.exposure_after, lo.exposure_after);
    EXPECT_LE(mean.exposure_after, hi.exposure_after);
  }
}

// ------------------------------------------------------------------ Client --

TEST(TrustedClientTest, ReturnsExactGenuineResults) {
  const auto& world = World();
  search::SearchEngine engine(world.corpus, world.index,
                              search::MakeBm25Scorer());
  topicmodel::LdaInferencer inferencer(world.model);
  PrivacySpec spec;
  GhostQueryGenerator generator(world.model, inferencer, spec);
  TrustedClient client(&engine, &generator, util::Rng(1));

  for (size_t qi = 0; qi < 8; ++qi) {
    const auto& q = world.workload[qi];
    ProtectedSearchResult protected_result = client.Search(q.term_ids, 10);
    std::vector<search::ScoredDoc> plain = engine.Evaluate(q.term_ids, 10);
    EXPECT_TRUE(search::SameRanking(protected_result.results, plain, 1e-9))
        << "query " << qi;
  }
}

TEST(TrustedClientTest, EngineLogSeesWholeCycle) {
  const auto& world = World();
  search::SearchEngine engine(world.corpus, world.index,
                              search::MakeBm25Scorer());
  topicmodel::LdaInferencer inferencer(world.model);
  PrivacySpec spec;
  GhostQueryGenerator generator(world.model, inferencer, spec);
  TrustedClient client(&engine, &generator, util::Rng(2));

  ProtectedSearchResult result = client.Search(world.workload[0].term_ids, 5);
  const search::QueryLog& log = engine.query_log();
  ASSERT_EQ(log.size(), result.cycle.length());
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log.entries()[i].cycle_id, result.cycle_id);
    EXPECT_EQ(log.entries()[i].terms, result.cycle.queries[i]);
  }
}

TEST(TrustedClientTest, CycleIdsDistinct) {
  const auto& world = World();
  search::SearchEngine engine(world.corpus, world.index,
                              search::MakeBm25Scorer());
  topicmodel::LdaInferencer inferencer(world.model);
  PrivacySpec spec;
  GhostQueryGenerator generator(world.model, inferencer, spec);
  TrustedClient client(&engine, &generator, util::Rng(3));
  auto r1 = client.Search(world.workload[0].term_ids, 5);
  auto r2 = client.Search(world.workload[1].term_ids, 5);
  EXPECT_NE(r1.cycle_id, r2.cycle_id);
}

}  // namespace
}  // namespace toppriv::core
