// Unit and property tests for the LDA trainer, model and inferencer.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/topic_spec.h"
#include "tests/test_helpers.h"
#include "topicmodel/gibbs_trainer.h"
#include "topicmodel/inference.h"
#include "topicmodel/lda_model.h"
#include "util/io.h"

namespace toppriv::topicmodel {
namespace {

using toppriv::testing::World;

// ---------------------------------------------------------------- LdaModel --

TEST(LdaModelTest, PhiRowsAreDistributions) {
  const LdaModel& model = World().model;
  for (size_t t = 0; t < model.num_topics(); ++t) {
    util::Span<const float> row = model.PhiRow(static_cast<TopicId>(t));
    double sum = 0.0;
    for (float p : row) {
      EXPECT_GE(p, 0.0f);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-3) << "topic " << t;
  }
}

TEST(LdaModelTest, ThetaRowsAreDistributions) {
  const LdaModel& model = World().model;
  for (size_t d = 0; d < std::min<size_t>(model.num_docs(), 50); ++d) {
    double sum = 0.0;
    for (size_t t = 0; t < model.num_topics(); ++t) {
      double p = model.Theta(d, static_cast<TopicId>(t));
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-3) << "doc " << d;
  }
}

TEST(LdaModelTest, PriorIsEq1Average) {
  const LdaModel& model = World().model;
  const std::vector<double>& prior = model.prior();
  ASSERT_EQ(prior.size(), model.num_topics());
  double sum = std::accumulate(prior.begin(), prior.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
  // Spot-check Eq. 1 directly for one topic.
  double manual = 0.0;
  for (size_t d = 0; d < model.num_docs(); ++d) manual += model.Theta(d, 3);
  manual /= static_cast<double>(model.num_docs());
  EXPECT_NEAR(prior[3], manual, 1e-9);
}

TEST(LdaModelTest, TopWordsSortedAndBounded) {
  const LdaModel& model = World().model;
  std::vector<WordProb> top = model.TopWords(0, 20);
  ASSERT_EQ(top.size(), 20u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].prob, top[i].prob);
  }
  // Asking for more words than the vocabulary has caps at vocab size.
  EXPECT_EQ(model.TopWords(0, 1u << 30).size(), model.vocab_size());
}

TEST(LdaModelTest, SizeBytesAccountsStructures) {
  const LdaModel& model = World().model;
  size_t expected = model.num_topics() * model.vocab_size() * sizeof(float) +
                    model.num_docs() * model.num_topics() * sizeof(float) +
                    model.num_topics() * sizeof(double);
  EXPECT_EQ(model.SizeBytes(), expected);
}

TEST(LdaModelTest, SerializeRoundtrip) {
  const LdaModel& model = World().model;
  auto restored = LdaModel::Deserialize(model.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_topics(), model.num_topics());
  EXPECT_EQ(restored->vocab_size(), model.vocab_size());
  EXPECT_EQ(restored->num_docs(), model.num_docs());
  EXPECT_DOUBLE_EQ(restored->alpha(), model.alpha());
  EXPECT_DOUBLE_EQ(restored->beta(), model.beta());
  EXPECT_FLOAT_EQ(static_cast<float>(restored->Phi(3, 7)),
                  static_cast<float>(model.Phi(3, 7)));
  EXPECT_NEAR(restored->prior()[5], model.prior()[5], 1e-12);
}

TEST(LdaModelTest, DeserializeGarbageFails) {
  EXPECT_FALSE(LdaModel::Deserialize("garbage").ok());
}

TEST(LdaModelTest, DeserializeRejectsOverflowingDimensions) {
  // Regression: num_topics * vocab_size was validated with a raw uint64
  // multiply, so dimensions chosen to wrap (2^32 * 2^32 == 0 mod 2^64)
  // "matched" an empty phi and produced a model whose PhiRow reads far out
  // of bounds. The division-based check must reject it with DataLoss.
  util::BinaryWriter w;
  w.WriteVarint(uint64_t{1} << 32);  // num_topics
  w.WriteVarint(uint64_t{1} << 32);  // vocab_size (product wraps to 0)
  w.WriteDouble(0.1);                // alpha
  w.WriteDouble(0.1);                // beta
  w.WriteFloatVector({});            // phi: empty, matches the wrapped product
  w.WriteFloatVector({});            // theta
  auto result = LdaModel::Deserialize(w.data());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(LdaModelTest, DeserializeRejectsMismatchedPhi) {
  util::BinaryWriter w;
  w.WriteVarint(2);  // num_topics
  w.WriteVarint(3);  // vocab_size
  w.WriteDouble(0.1);
  w.WriteDouble(0.1);
  w.WriteFloatVector({0.5f, 0.5f, 0.5f, 0.5f});  // 4 floats != 2*3
  w.WriteFloatVector({});
  EXPECT_FALSE(LdaModel::Deserialize(w.data()).ok());
}

TEST(LdaModelTest, DeserializeHostileVectorCountFailsCleanly) {
  // A tiny blob whose float-vector count wraps the byte-size computation
  // must fail with DataLoss instead of attempting a huge allocation.
  util::BinaryWriter w;
  w.WriteVarint(2);
  w.WriteVarint(2);
  w.WriteDouble(0.1);
  w.WriteDouble(0.1);
  w.WriteVarint(uint64_t{1} << 62);  // phi count: 2^62 floats "fit" mod 2^64
  auto result = LdaModel::Deserialize(w.data());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(LdaModelTest, TruncatedBlobsNeverCrash) {
  const LdaModel& model = World().model;
  std::string bytes = model.Serialize();
  // Sweep a few hundred truncation points across the blob (it is large, so
  // stride; always include the varint/double header region densely).
  for (size_t cut = 0; cut < std::min<size_t>(bytes.size(), 64); ++cut) {
    EXPECT_FALSE(LdaModel::Deserialize(bytes.substr(0, cut)).ok());
  }
  const size_t stride = std::max<size_t>(1, bytes.size() / 128);
  for (size_t cut = 64; cut < bytes.size(); cut += stride) {
    EXPECT_FALSE(LdaModel::Deserialize(bytes.substr(0, cut)).ok());
  }
}

TEST(LdaModelTest, CreateComputesUniformPriorWithoutDocs) {
  std::vector<float> phi = {0.5f, 0.5f, 0.25f, 0.75f};
  LdaModel model = LdaModel::Create(2, 2, phi, {}, 0.1, 0.1);
  EXPECT_DOUBLE_EQ(model.prior()[0], 0.5);
  EXPECT_DOUBLE_EQ(model.prior()[1], 0.5);
  EXPECT_EQ(model.num_docs(), 0u);
}

// ------------------------------------------------------------ GibbsTrainer --

TEST(GibbsTrainerTest, AlphaDefaultsToFiftyOverT) {
  const LdaModel& model = World().model;  // 40 topics
  EXPECT_NEAR(model.alpha(), 50.0 / 40.0, 1e-12);
  EXPECT_NEAR(model.beta(), 0.1, 1e-12);
}

TEST(GibbsTrainerTest, TrainingIsDeterministic) {
  corpus::GeneratorParams params;
  params.num_docs = 60;
  params.tail_vocab_size = 150;
  corpus::Corpus c = corpus::CorpusGenerator(params).Generate();
  TrainerOptions options;
  options.num_topics = 10;
  options.iterations = 15;
  LdaModel a = GibbsTrainer(options).Train(c);
  LdaModel b = GibbsTrainer(options).Train(c);
  EXPECT_EQ(a.Serialize(), b.Serialize());
}

TEST(GibbsTrainerTest, TrainingImprovesLikelihoodOverOneSweep) {
  corpus::GeneratorParams params;
  params.num_docs = 120;
  params.tail_vocab_size = 200;
  corpus::Corpus c = corpus::CorpusGenerator(params).Generate();
  TrainerOptions brief;
  brief.num_topics = 20;
  brief.iterations = 1;
  brief.estimation_samples = 1;
  TrainerOptions full = brief;
  full.iterations = 40;
  full.estimation_samples = 5;
  double ll_brief =
      GibbsTrainer::LogLikelihoodPerToken(GibbsTrainer(brief).Train(c), c);
  double ll_full =
      GibbsTrainer::LogLikelihoodPerToken(GibbsTrainer(full).Train(c), c);
  EXPECT_GT(ll_full, ll_brief + 0.1);
}

TEST(GibbsTrainerTest, RecoversPlantedTopics) {
  // Topics in the trained model should align with ground-truth topics: for
  // most LDA topics, the top words should be dominated by a single
  // ground-truth topic's seed list (topical coherence, paper Table II).
  const auto& world = World();
  const LdaModel& model = world.model;

  // Map each seed term id -> ground-truth topic.
  std::vector<int> seed_owner(world.corpus.vocabulary_size(), -1);
  for (size_t t = 0; t < world.truth.seed_term_ids.size(); ++t) {
    for (text::TermId w : world.truth.seed_term_ids[t]) {
      seed_owner[w] = static_cast<int>(t);
    }
  }

  size_t coherent = 0;
  for (size_t t = 0; t < model.num_topics(); ++t) {
    std::vector<WordProb> top = model.TopWords(static_cast<TopicId>(t), 15);
    std::vector<int> votes(world.truth.seed_term_ids.size(), 0);
    int seeded = 0;
    for (const WordProb& wp : top) {
      int owner = seed_owner[wp.term];
      if (owner >= 0) {
        ++votes[owner];
        ++seeded;
      }
    }
    int best = *std::max_element(votes.begin(), votes.end());
    if (seeded >= 5 && best * 2 >= seeded) ++coherent;
  }
  // At least a third of the topics should be crisply aligned (40 LDA topics
  // over 30 true topics leaves room for mixed/generic topics, as in the
  // paper's Table II last column).
  EXPECT_GE(coherent, model.num_topics() / 3);
}

// ------------------------------------------------------------- Inferencer --

TEST(InferencerTest, PosteriorIsDistribution) {
  const auto& world = World();
  LdaInferencer inferencer(world.model);
  for (size_t qi = 0; qi < 5; ++qi) {
    std::vector<double> posterior =
        inferencer.InferQuery(world.workload[qi].term_ids);
    ASSERT_EQ(posterior.size(), world.model.num_topics());
    double sum = std::accumulate(posterior.begin(), posterior.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    for (double p : posterior) EXPECT_GT(p, 0.0);
  }
}

TEST(InferencerTest, DeterministicForSameQuery) {
  const auto& world = World();
  LdaInferencer inferencer(world.model);
  std::vector<double> a = inferencer.InferQuery(world.workload[0].term_ids);
  std::vector<double> b = inferencer.InferQuery(world.workload[0].term_ids);
  EXPECT_EQ(a, b);
}

TEST(InferencerTest, EmptyQueryIsUniform) {
  const auto& world = World();
  LdaInferencer inferencer(world.model);
  std::vector<double> posterior = inferencer.InferQuery({});
  for (double p : posterior) {
    EXPECT_NEAR(p, 1.0 / static_cast<double>(world.model.num_topics()), 1e-12);
  }
}

TEST(InferencerTest, OutOfVocabularyTermsIgnored) {
  const auto& world = World();
  LdaInferencer inferencer(world.model);
  std::vector<text::TermId> query = world.workload[0].term_ids;
  std::vector<double> base = inferencer.InferQuery(query);
  query.push_back(static_cast<text::TermId>(world.model.vocab_size() + 99));
  std::vector<double> with_oov = inferencer.InferQuery(query);
  EXPECT_EQ(base, with_oov);
}

TEST(InferencerTest, WorkspaceReuseIsBitIdentical) {
  // One workspace over a long query, then a short one, then an all-OOV
  // one, then the long one again: every result must equal a fresh
  // workspace's, so no buffer (Phi columns, topic weights, counts, CDF)
  // carries state from one call into the next.
  const auto& world = World();
  LdaInferencer inferencer(world.model);
  const auto vocab = static_cast<text::TermId>(world.model.vocab_size());
  std::vector<text::TermId> long_query;
  for (const auto& q : world.workload) {
    long_query.insert(long_query.end(), q.term_ids.begin(), q.term_ids.end());
    if (long_query.size() >= 20) break;
  }
  long_query.resize(20);
  const std::vector<std::vector<text::TermId>> queries = {
      long_query,
      {long_query[3], long_query[11]},
      {vocab, vocab + 7, vocab + 1000},
      long_query};
  InferenceWorkspace reused;
  for (size_t i = 0; i < queries.size(); ++i) {
    InferenceWorkspace fresh;
    EXPECT_EQ(inferencer.InferQuery(queries[i], &reused),
              inferencer.InferQuery(queries[i], &fresh))
        << "query " << i;
  }
}

TEST(InferencerTest, TopicalQueryConcentratesPosterior) {
  // A strongly topical query should lift a small number of topics far above
  // the prior; the bulk of topics should stay near it.
  const auto& world = World();
  LdaInferencer inferencer(world.model);
  std::vector<double> posterior =
      inferencer.InferQuery(world.workload[0].term_ids);
  std::vector<double> boosts;
  for (size_t t = 0; t < posterior.size(); ++t) {
    boosts.push_back(posterior[t] - world.model.prior()[t]);
  }
  std::sort(boosts.rbegin(), boosts.rend());
  EXPECT_GT(boosts[0], 0.05);   // at least one strongly-boosted topic
  EXPECT_LT(boosts[5], 0.05);   // but not many
}

TEST(InferencerTest, CyclePosteriorIsUniformMixture) {
  std::vector<std::vector<double>> posteriors = {
      {0.8, 0.1, 0.1},
      {0.2, 0.6, 0.2},
      {0.0, 0.3, 0.7},
  };
  std::vector<double> mix = LdaInferencer::CyclePosterior(posteriors);
  ASSERT_EQ(mix.size(), 3u);
  EXPECT_NEAR(mix[0], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(mix[1], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(mix[2], 1.0 / 3.0, 1e-12);
}

TEST(InferencerTest, CyclePosteriorSingleQueryIsIdentity) {
  std::vector<std::vector<double>> posteriors = {{0.25, 0.75}};
  EXPECT_EQ(LdaInferencer::CyclePosterior(posteriors), posteriors[0]);
}

TEST(InferencerTest, MoreGhostQueriesDiluteBoost) {
  // Adding unrelated queries to a cycle must shrink the genuine topics'
  // boost — the mechanism TopPriv relies on (Eq. 2).
  const auto& world = World();
  LdaInferencer inferencer(world.model);
  std::vector<double> genuine =
      inferencer.InferQuery(world.workload[0].term_ids);
  std::vector<double> other =
      inferencer.InferQuery(world.workload[1].term_ids);

  size_t top_topic = 0;
  for (size_t t = 1; t < genuine.size(); ++t) {
    if (genuine[t] > genuine[top_topic]) top_topic = t;
  }
  double solo_boost = genuine[top_topic] - world.model.prior()[top_topic];
  std::vector<double> mixed =
      LdaInferencer::CyclePosterior({genuine, other, other, other});
  double mixed_boost = mixed[top_topic] - world.model.prior()[top_topic];
  EXPECT_LT(mixed_boost, solo_boost * 0.5);
}

}  // namespace
}  // namespace toppriv::topicmodel
