// Golden digests: the exact bits the protected cycle's hot kernels produce
// on fixed inputs — LDA fold-in inference, per-posting scoring under every
// scorer and engine shape, and a fixed SessionDriver run.
//
// Where each constant comes from:
// - EngineTest.GoldenResultDigest was recorded from the straightforward
//   per-posting scorer, before its optimisation; every later engine
//   change reproduces it bit for bit.
// - InferencerTest.ReferenceSamplerGoldenPosteriorDigest pins the exact
//   fold-in sampler kept as the test reference (tests/reference_sampler.h):
//   the straightforward full-CDF Gibbs sampler over util::Rng.
// - InferencerTest.GoldenPosteriorDigest and
//   SessionDriverGoldenTest.FixedSessionDigest were recorded from the
//   sparse-bucket sampler (topicmodel/inference.h). It draws from the same
//   conditional as the reference with other random numbers, so these two
//   moved when it replaced the full-CDF sampler; topicmodel_test and
//   toppriv_test hold its distribution to the reference's.
//
// The other parity suites compare two runs of one binary (thread counts,
// segment counts) against each other, so a reordered
// floating-point sum that moves every run alike passes them; a constant
// does not move. A change that is MEANT to move results (a new sampler, a
// different scorer formula, a trainer change that moves the World() model)
// updates these constants and says why in CHANGES.md.
//
// The digests also pin the toolchain's std::log and libstdc++'s <random>
// distributions, which the corpus generator, trainer and samplers draw
// from; a standard library whose distributions differ fails here first.
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "index/live/live_index.h"
#include "search/engine.h"
#include "search/live_engine.h"
#include "search/scorer.h"
#include "serving/session_driver.h"
#include "tests/reference_sampler.h"
#include "tests/test_helpers.h"
#include "topicmodel/inference.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/rng.h"

namespace toppriv {
namespace {

using toppriv::testing::World;

uint64_t FoldDouble(uint64_t h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return util::Fnv1aStep(h, bits);
}

/// `n` term ids drawn uniformly from [0, limit), deterministic in `seed`.
std::vector<text::TermId> RandomTerms(uint64_t seed, size_t n,
                                      uint64_t limit) {
  util::Rng rng(seed);
  std::vector<text::TermId> terms(n);
  for (text::TermId& t : terms) {
    t = static_cast<text::TermId>(rng.UniformInt(limit));
  }
  return terms;
}

// ------------------------------------------------------------- Inference --

/// The fixed query set both sampler digests fold: the workload plus the
/// shapes whose handling differs (length 1, repeats, OOV, empty, long).
std::vector<std::vector<text::TermId>> InferenceQueries() {
  const auto& world = World();
  const auto vocab = static_cast<text::TermId>(world.model.vocab_size());
  const std::vector<text::TermId>& first = world.workload[0].term_ids;
  TOPPRIV_CHECK_GE(first.size(), 2u);
  const text::TermId a = first[0];
  const text::TermId b = first[1];

  std::vector<std::vector<text::TermId>> queries;
  for (const corpus::BenchmarkQuery& q : world.workload) {
    queries.push_back(q.term_ids);
  }
  queries.push_back({a});                          // length 1
  queries.push_back({a, a, a, b, b, a});           // repeated terms
  queries.push_back({a, vocab, b, vocab + 100});   // OOV ids dropped
  queries.push_back({vocab, vocab + 1});           // all OOV: uniform
  queries.push_back({});                           // empty: uniform
  queries.push_back(RandomTerms(5, 24, vocab));    // > 20 tokens
  queries.push_back(RandomTerms(6, 57, vocab));    // L > T
  return queries;
}

template <typename Infer>
uint64_t PosteriorDigest(const Infer& infer) {
  uint64_t h = util::kFnv1aOffsetBasis;
  for (const std::vector<text::TermId>& q : InferenceQueries()) {
    const std::vector<double> posterior = infer(q);
    EXPECT_EQ(posterior.size(), World().model.num_topics());
    for (double p : posterior) h = FoldDouble(h, p);
  }
  return h;
}

TEST(InferencerTest, GoldenPosteriorDigest) {
  const topicmodel::LdaInferencer inferencer(World().model);
  const uint64_t h = PosteriorDigest(
      [&](const std::vector<text::TermId>& q) {
        return inferencer.InferQuery(q);
      });
  EXPECT_EQ(h, 0xa69ca443d31d1c23ull) << std::hex << "digest 0x" << h;
}

TEST(InferencerTest, ReferenceSamplerGoldenPosteriorDigest) {
  const topicmodel::InferenceOptions options;
  const uint64_t h = PosteriorDigest(
      [&](const std::vector<text::TermId>& q) {
        return toppriv::testing::ReferenceInferQuery(World().model, options,
                                                     q);
      });
  EXPECT_EQ(h, 0xeceb0832128edc92ull) << std::hex << "digest 0x" << h;
}

// ---------------------------------------------------------------- Engine --

std::unique_ptr<search::Scorer> MakeScorer(int which) {
  switch (which) {
    case 0:
      return search::MakeBm25Scorer();
    case 1:
      return search::MakeTfIdfScorer();
    default:
      return std::make_unique<search::LmDirichletScorer>();
  }
}

uint64_t ResultDigest(const search::QueryEngine& engine,
                      const std::vector<std::vector<text::TermId>>& queries) {
  uint64_t h = util::kFnv1aOffsetBasis;
  for (size_t k : {size_t{1}, size_t{10}}) {
    for (const std::vector<text::TermId>& q : queries) {
      for (const search::ScoredDoc& d : engine.Evaluate(q, k)) {
        h = util::Fnv1aStep(h, d.doc);
        h = FoldDouble(h, d.score);
      }
      h = util::Fnv1aStep(h, 0xffffffffu);  // query separator
    }
  }
  return h;
}

TEST(EngineTest, GoldenResultDigest) {
  // One constant per scorer: the monolithic SearchEngine and a 3-segment
  // LiveSearchEngine must both reproduce it.
  const uint64_t kGolden[3] = {0x2cc6f4fd8c72665aull,   // BM25
                               0x34a5f5807158f7ebull,   // TF-IDF
                               0x9fda4d34aaa3ffe4ull};  // LM-Dirichlet
  const auto& world = World();
  std::vector<std::vector<text::TermId>> queries;
  for (const corpus::BenchmarkQuery& q : world.workload) {
    queries.push_back(q.term_ids);
    // Every term three times: qtf >= 3 on every posting.
    std::vector<text::TermId> tripled;
    for (int r = 0; r < 3; ++r) {
      tripled.insert(tripled.end(), q.term_ids.begin(), q.term_ids.end());
    }
    queries.push_back(tripled);
  }
  // Random queries, repeated terms (qtf > 1) included.
  util::Rng rng(2024);
  for (int i = 0; i < 20; ++i) {
    const size_t len = 1 + rng.UniformInt(uint64_t{8});
    queries.push_back(RandomTerms(300 + i, len, world.index.num_terms()));
  }
  std::unique_ptr<index::live::LiveIndex> live =
      toppriv::testing::SegmentedIndex(world.corpus, 3);
  ASSERT_EQ(live->num_segments(), 3u);

  for (int kind = 0; kind < 3; ++kind) {
    SCOPED_TRACE(MakeScorer(kind)->Name());
    const search::SearchEngine mono(world.corpus, world.index,
                                    MakeScorer(kind));
    const search::LiveSearchEngine segmented(world.corpus, *live,
                                             MakeScorer(kind));
    const uint64_t mono_digest = ResultDigest(mono, queries);
    EXPECT_EQ(mono_digest, kGolden[kind])
        << std::hex << "SearchEngine digest 0x" << mono_digest;
    const uint64_t segmented_digest = ResultDigest(segmented, queries);
    EXPECT_EQ(segmented_digest, kGolden[kind])
        << std::hex << "LiveSearchEngine digest 0x" << segmented_digest;
  }
}

// --------------------------------------------------------------- Serving --

TEST(SessionDriverGoldenTest, FixedSessionDigest) {
  const auto& world = World();
  const topicmodel::LdaInferencer inferencer(world.model);
  search::SearchEngine engine(world.corpus, world.index,
                              search::MakeBm25Scorer());
  std::vector<std::vector<text::TermId>> queries;
  for (size_t i = 0; i < 12; ++i) {
    queries.push_back(world.workload[i % world.workload.size()].term_ids);
  }
  serving::DriverOptions options;
  options.seed = 7;
  serving::SessionDriver driver(world.model, inferencer, engine, options);
  const serving::ServingReport report =
      driver.Run(serving::DealSessions(queries, 3));

  uint64_t h = util::kFnv1aOffsetBasis;
  for (const serving::SessionStats& s : report.sessions) {
    h = util::Fnv1aStep(h, s.digest);
    h = util::Fnv1aStep(h, s.cycles);
    h = util::Fnv1aStep(h, s.queries_submitted);
    h = util::Fnv1aStep(h, s.met_epsilon2);
    h = FoldDouble(h, s.exposure_after_sum);
  }
  EXPECT_EQ(h, 0x75cb874892079b60ull) << std::hex << "digest 0x" << h;
}

}  // namespace
}  // namespace toppriv
