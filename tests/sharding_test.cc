// Parity suite for sharding as a segment partition.
//
// A K-shard index is the corpus as K sealed segments of one LiveIndex
// (experiments::BuildSegmentedIndex), served by LiveSearchEngine — what
// ExperimentFixture::MakeEngine builds for K > 1. The contract under test:
// the partition is INVISIBLE. For any shard count, fan-out thread count
// and scorer, the engine returns bit-identical results to the monolithic
// SearchEngine, and the snapshot's aggregated statistics
// equal the static index's exactly.
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/fixture.h"
#include "index/inverted_index.h"
#include "index/live/live_index.h"
#include "search/engine.h"
#include "search/live_engine.h"
#include "search/scorer.h"
#include "serving/session_driver.h"
#include "tests/test_helpers.h"
#include "topicmodel/inference.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace toppriv {
namespace {

using experiments::BuildSegmentedIndex;
using experiments::ExperimentFixture;
using index::IndexStats;
using index::InvertedIndex;
using index::live::IndexSnapshot;
using search::ScoredDoc;
using toppriv::testing::World;

// Shard counts the suite sweeps: 1 (monolithic), even splits, a prime
// that does not divide the corpus (uneven ranges), and more shards than
// documents (one document per segment).
std::vector<size_t> ShardCounts() {
  return {1, 2, 4, 7, World().corpus.num_documents() + 3};
}

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

/// One fixture over the World() corpus for the whole binary, so its
/// cached K-segment indexes and fan-out pools are built once.
ExperimentFixture& Fixture() {
  static ExperimentFixture* fixture = [] {
    experiments::FixtureConfig config;
    config.corpus_params = World().params;
    return new ExperimentFixture(config);
  }();
  return *fixture;
}

/// The LiveIndex behind a MakeEngine engine with K > 1 (null otherwise).
const index::live::LiveIndex* SegmentsOf(const search::QueryEngine& engine) {
  const auto* live = dynamic_cast<const search::LiveSearchEngine*>(&engine);
  return live == nullptr ? nullptr : &live->live_index();
}

void ExpectBitIdentical(const std::vector<ScoredDoc>& got,
                        const std::vector<ScoredDoc>& want,
                        const char* context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << context << " rank " << i;
    // Bit equality, not EXPECT_NEAR: every segment runs the identical
    // floating-point ops in the identical order.
    EXPECT_EQ(got[i].score, want[i].score) << context << " rank " << i;
  }
}

// ----------------------------------------------------------- bit parity --

TEST(ShardingParityTest, FixtureCorpusIsTheWorldCorpus) {
  // The suite compares fixture engines against World()'s static index;
  // that is only meaningful if the two corpora are the same.
  const corpus::Corpus& got = Fixture().corpus();
  const corpus::Corpus& want = World().corpus;
  ASSERT_EQ(got.num_documents(), want.num_documents());
  ASSERT_EQ(got.vocabulary_size(), want.vocabulary_size());
  for (size_t d = 0; d < got.num_documents(); ++d) {
    ASSERT_EQ(got.document(d).tokens, want.document(d).tokens) << d;
  }
}

TEST(ShardingParityTest, MakeEngineMatchesMonolithicAcrossGrid) {
  // K × fan-out threads × scorer. LmDirichlet is the scorer whose
  // Normalize depends on collection statistics, so it catches a
  // segment-local stats leak the other two cannot.
  const auto& world = World();
  for (int scorer_kind = 0; scorer_kind < 3; ++scorer_kind) {
    search::SearchEngine mono(world.corpus, world.index,
                              MakeScorer(scorer_kind));
    for (size_t num_shards : ShardCounts()) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(::testing::Message()
                     << "scorer=" << scorer_kind << " shards=" << num_shards
                     << " threads=" << threads);
        std::unique_ptr<search::QueryEngine> engine = Fixture().MakeEngine(
            MakeScorer(scorer_kind), num_shards, threads);
        const index::live::LiveIndex* live = SegmentsOf(*engine);
        if (num_shards == 1) {
          EXPECT_EQ(live, nullptr);
        } else {
          // Exactly min(K, N) sealed segments: no merge ran.
          ASSERT_NE(live, nullptr);
          EXPECT_EQ(live->num_segments(),
                    std::min(num_shards, world.corpus.num_documents()));
          EXPECT_EQ(live->Acquire()->num_segments(), live->num_segments());
        }
        for (size_t qi = 0; qi < world.workload.size(); ++qi) {
          SCOPED_TRACE(qi);
          ExpectBitIdentical(engine->Evaluate(world.workload[qi].term_ids, 10),
                             mono.Evaluate(world.workload[qi].term_ids, 10),
                             "workload");
        }
      }
    }
  }
}

TEST(ShardingParityTest, RandomQueriesIncludingRepeatsAndUnknownTerms) {
  const auto& world = World();
  search::SearchEngine mono(world.corpus, world.index, search::MakeBm25Scorer());
  util::Rng rng(4242);
  for (size_t num_shards : {size_t{2}, size_t{7}}) {
    std::unique_ptr<search::QueryEngine> engine = Fixture().MakeEngine(
        search::MakeBm25Scorer(), num_shards, 1);
    for (int trial = 0; trial < 40; ++trial) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << num_shards << " trial=" << trial);
      size_t len = 1 + rng.UniformInt(uint64_t{6});
      std::vector<text::TermId> query;
      for (size_t i = 0; i < len; ++i) {
        // Every other trial draws past the vocabulary to hit empty lists.
        uint64_t space =
            world.corpus.vocabulary_size() + (trial % 2 ? 50 : 0);
        query.push_back(static_cast<text::TermId>(rng.UniformInt(space)));
      }
      // Duplicate a term half the time: qtf collapse must match too.
      if (len > 1 && trial % 2 == 0) query.push_back(query[0]);
      ExpectBitIdentical(engine->Evaluate(query, 15),
                         mono.Evaluate(query, 15), "random");
    }
  }
}

TEST(ShardingParityTest, KLargerThanCorpusMakesOneSegmentPerDocument) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  InvertedIndex mono_index = InvertedIndex::Build(c);
  search::SearchEngine mono(c, mono_index, search::MakeBm25Scorer());
  std::unique_ptr<index::live::LiveIndex> live = BuildSegmentedIndex(c, 7);
  ASSERT_EQ(live->num_segments(), 4u);  // 4 docs, 7 shards: no empties
  EXPECT_EQ(live->Acquire()->num_documents(), 4u);
  search::LiveSearchEngine engine(c, *live, search::MakeBm25Scorer());
  for (text::TermId t = 0; t < 4; ++t) {
    ExpectBitIdentical(engine.Evaluate({t}, 10), mono.Evaluate({t}, 10),
                       "tiny");
  }
}

TEST(ShardingParityTest, EmptyQueryAndZeroKReturnNothing) {
  std::unique_ptr<search::QueryEngine> engine =
      Fixture().MakeEngine(search::MakeBm25Scorer(), 4);
  EXPECT_TRUE(engine->Evaluate({}, 10).empty());
  EXPECT_TRUE(engine->Evaluate({0}, 0).empty());
}

TEST(ShardingParityTest, SearchLogsLikeMonolithic) {
  std::unique_ptr<search::QueryEngine> engine =
      Fixture().MakeEngine(search::MakeBm25Scorer(), 2);
  engine->Search({1, 2}, 5, /*cycle_id=*/9);
  engine->Evaluate({3}, 5);  // must NOT log
  ASSERT_EQ(engine->query_log().size(), 1u);
  EXPECT_EQ(engine->query_log().entries()[0].cycle_id, 9u);
  EXPECT_EQ(engine->query_log().entries()[0].terms,
            (std::vector<text::TermId>{1, 2}));
}

// ------------------------------------------------------------ tie-break --

/// Segment of `snapshot` holding dense id `doc`.
size_t SegmentHolding(const IndexSnapshot& snapshot, corpus::DocId doc) {
  size_t s = 0;
  while (s + 1 < snapshot.num_segments() &&
         snapshot.segment(s + 1).dense_base <= doc) {
    ++s;
  }
  return s;
}

// Regression for doc-id-deterministic merge ordering: documents with
// IDENTICAL content in DIFFERENT segments score exactly equal (same tf,
// same length, same collection statistics → same double bits). The merged
// ranking must order them by doc id no matter how many segments evaluated
// them or in which order their results arrived.
TEST(ShardingTieBreakTest, ExactCrossSegmentTiesOrderByDocId) {
  corpus::Corpus c;
  text::Vocabulary& vocab = c.mutable_vocabulary();
  text::TermId a = vocab.AddTerm("alpha");
  text::TermId b = vocab.AddTerm("beta");
  text::TermId filler = vocab.AddTerm("filler");
  // Six docs; docs 0, 2 and 5 are identical (same tf, same length → the
  // same BM25 double bits); doc 3 matches but is longer, so it scores
  // strictly lower.
  c.AddDocument("d0", {a, b});
  c.AddDocument("d1", {filler, filler});
  c.AddDocument("d2", {a, b});
  c.AddDocument("d3", {a, filler, filler});
  c.AddDocument("d4", {filler});
  c.AddDocument("d5", {a, b});

  InvertedIndex mono_index = InvertedIndex::Build(c);
  search::SearchEngine mono(c, mono_index, search::MakeBm25Scorer());
  std::vector<ScoredDoc> want = mono.Evaluate({a}, 6);
  // The tie really is exact: three equal leading scores.
  ASSERT_GE(want.size(), 3u);
  ASSERT_EQ(want[0].score, want[1].score);
  ASSERT_EQ(want[1].score, want[2].score);
  EXPECT_EQ(want[0].doc, 0u);
  EXPECT_EQ(want[1].doc, 2u);
  EXPECT_EQ(want[2].doc, 5u);

  util::ThreadPool pool(3);
  for (size_t num_shards : {size_t{2}, size_t{3}, size_t{6}}) {
    SCOPED_TRACE(num_shards);
    std::unique_ptr<index::live::LiveIndex> live =
        BuildSegmentedIndex(c, num_shards);
    ASSERT_EQ(live->num_segments(), num_shards);
    // The tied docs must actually span segments for the test to bite.
    const auto snapshot = live->Acquire();
    EXPECT_NE(SegmentHolding(*snapshot, 0), SegmentHolding(*snapshot, 5));
    for (util::ThreadPool* fanout : {static_cast<util::ThreadPool*>(nullptr),
                                     &pool}) {
      search::LiveSearchEngine engine(c, *live, search::MakeBm25Scorer(),
                                      fanout);
      ExpectBitIdentical(engine.Evaluate({a}, 6), want, "tie/full");
      // Truncation through the tie must keep the lower doc ids.
      std::vector<ScoredDoc> top2 = engine.Evaluate({a}, 2);
      ASSERT_EQ(top2.size(), 2u);
      EXPECT_EQ(top2[0].doc, 0u);
      EXPECT_EQ(top2[1].doc, 2u);
    }
  }
}

// -------------------------------------------------------- pooled fan-out --

// The pooled fan-out must be indistinguishable from the sequential
// scatter, also when several callers share the fixture's one fan-out pool
// at once (the serving fleet's shape, and this suite's ThreadSanitizer
// target for the pool, the per-segment result slots and the thread-local
// scratches).
TEST(ShardingFanOutTest, PooledMatchesSequentialUnderConcurrentCallers) {
  const auto& world = World();
  std::unique_ptr<search::QueryEngine> sequential =
      Fixture().MakeEngine(search::MakeBm25Scorer(), 7, 1);
  std::unique_ptr<search::QueryEngine> pooled_a =
      Fixture().MakeEngine(search::MakeBm25Scorer(), 7, 4);
  std::unique_ptr<search::QueryEngine> pooled_b =
      Fixture().MakeEngine(search::MakeBm25Scorer(), 4, 4);
  std::vector<std::vector<ScoredDoc>> want;
  for (const auto& q : world.workload) {
    want.push_back(sequential->Evaluate(q.term_ids, 10));
  }
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    const search::QueryEngine& engine = c % 2 == 0 ? *pooled_a : *pooled_b;
    callers.emplace_back([&, c] {
      for (size_t i = 0; i < world.workload.size(); ++i) {
        const size_t qi = (i + static_cast<size_t>(c)) %
                          world.workload.size();
        ExpectBitIdentical(engine.Evaluate(world.workload[qi].term_ids, 10),
                           want[qi], "pooled");
      }
    });
  }
  for (std::thread& t : callers) t.join();
}

// ------------------------------------------------------ stats properties --

void ExpectStatsEqual(const IndexStats& got, const IndexStats& want) {
  EXPECT_EQ(got.num_terms, want.num_terms);
  EXPECT_EQ(got.num_documents, want.num_documents);
  EXPECT_EQ(got.total_postings, want.total_postings);
  EXPECT_EQ(got.max_list_length, want.max_list_length);
  EXPECT_EQ(got.encoded_bytes, want.encoded_bytes);
  EXPECT_EQ(got.pir_padded_bytes, want.pir_padded_bytes);
  EXPECT_DOUBLE_EQ(got.avg_list_length, want.avg_list_length);
}

TEST(ShardingStatsTest, AggregatedStatsEqualMonolithicExactly) {
  const auto& world = World();
  const IndexStats want = world.index.ComputeStats();
  for (size_t num_shards : ShardCounts()) {
    SCOPED_TRACE(num_shards);
    std::unique_ptr<index::live::LiveIndex> live =
        BuildSegmentedIndex(world.corpus, num_shards);
    const auto snapshot = live->Acquire();
    // Every aggregate — including encoded_bytes, which cannot be recovered
    // by summing segment ByteSize()s (each segment re-anchors its first
    // posting) — must match the monolithic index exactly: the paper's §II
    // PIR arithmetic is partition-invariant.
    ExpectStatsEqual(snapshot->ComputeStats(), want);
    EXPECT_EQ(snapshot->num_documents(), world.index.num_documents());
    EXPECT_EQ(snapshot->num_terms(), world.index.num_terms());
    EXPECT_EQ(snapshot->total_tokens(), world.index.total_tokens());
    EXPECT_DOUBLE_EQ(snapshot->avg_doc_length(), world.index.avg_doc_length());
  }
}

TEST(ShardingStatsTest, SegmentsTileTheDocSpaceAndSumToMonolithic) {
  const auto& world = World();
  const size_t n = world.corpus.num_documents();
  for (size_t num_shards : ShardCounts()) {
    SCOPED_TRACE(num_shards);
    std::unique_ptr<index::live::LiveIndex> live =
        BuildSegmentedIndex(world.corpus, num_shards);
    const auto snapshot = live->Acquire();
    ASSERT_EQ(snapshot->num_segments(), std::min(num_shards, n));
    corpus::DocId expected_base = 0;
    uint64_t postings = 0;
    for (size_t s = 0; s < snapshot->num_segments(); ++s) {
      const index::live::SnapshotSegment& ss = snapshot->segment(s);
      // Contiguous, in order, near-equal: segment s holds the static
      // partition's range [N*s/K, N*(s+1)/K) of every non-empty range.
      EXPECT_EQ(ss.dense_base, expected_base);
      EXPECT_GE(ss.live_docs, 1u);
      EXPECT_LE(ss.live_docs, (n + num_shards - 1) / num_shards);
      expected_base += ss.live_docs;
      postings += ss.segment->index().ComputeStats().total_postings;
    }
    EXPECT_EQ(expected_base, n);
    EXPECT_EQ(postings, world.index.ComputeStats().total_postings);
  }
}

TEST(ShardingStatsTest, DocFreqAndDocLengthMatchMonolithic) {
  const auto& world = World();
  util::Rng rng(1337);
  for (size_t num_shards : {size_t{2}, size_t{4}, size_t{7}}) {
    SCOPED_TRACE(num_shards);
    std::unique_ptr<index::live::LiveIndex> live =
        BuildSegmentedIndex(world.corpus, num_shards);
    const auto snapshot = live->Acquire();
    for (int trial = 0; trial < 200; ++trial) {
      text::TermId term = static_cast<text::TermId>(
          rng.UniformInt(uint64_t{world.corpus.vocabulary_size()}));
      EXPECT_EQ(snapshot->DocFreq(term), world.index.DocFreq(term))
          << "term " << term;
      // Per-segment dfs must additionally SUM to the global df.
      uint32_t sum = 0;
      for (size_t s = 0; s < snapshot->num_segments(); ++s) {
        sum += snapshot->segment(s).segment->index().DocFreq(term);
      }
      EXPECT_EQ(sum, world.index.DocFreq(term)) << "term " << term;

      corpus::DocId doc = static_cast<corpus::DocId>(
          rng.UniformInt(uint64_t{world.corpus.num_documents()}));
      EXPECT_EQ(snapshot->DocLength(doc), world.index.DocLength(doc))
          << "doc " << doc;
    }
    // Out-of-vocabulary terms have zero frequency everywhere.
    EXPECT_EQ(snapshot->DocFreq(static_cast<text::TermId>(
                  world.corpus.vocabulary_size() + 3)),
              0u);
  }
}

// ------------------------------------------------------- serving parity --

// The full-stack invariant: a SessionDriver serving many concurrent
// sessions over a K-segment engine produces digests bit-identical to the
// same driver over the monolithic engine, at every driver thread count ×
// segment fan-out combination (concurrent sessions share one
// fan-out pool).
TEST(ShardedServingTest, DriverDigestsMatchMonolithicAcrossThreadCounts) {
  const auto& world = World();
  topicmodel::LdaInferencer inferencer(world.model);

  std::vector<std::vector<text::TermId>> queries;
  for (size_t i = 0; i < 8; ++i) {
    queries.push_back(world.workload[i % world.workload.size()].term_ids);
  }
  std::vector<serving::SessionWorkload> sessions =
      serving::DealSessions(queries, 4);

  auto run = [&](const search::QueryEngine& engine, size_t driver_threads) {
    serving::DriverOptions options;
    options.num_threads = driver_threads;
    options.seed = 21;
    serving::SessionDriver driver(world.model, inferencer, engine, options);
    return driver.Run(sessions);
  };

  search::SearchEngine mono(world.corpus, world.index,
                            search::MakeBm25Scorer());
  serving::ServingReport want = run(mono, 1);

  for (size_t engine_threads : {size_t{1}, size_t{4}}) {
    std::unique_ptr<search::QueryEngine> engine = Fixture().MakeEngine(
        search::MakeBm25Scorer(), 4, engine_threads);
    for (size_t driver_threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(::testing::Message()
                   << "engine_threads=" << engine_threads
                   << " driver_threads=" << driver_threads);
      serving::ServingReport got = run(*engine, driver_threads);
      ASSERT_EQ(got.sessions.size(), want.sessions.size());
      for (size_t s = 0; s < got.sessions.size(); ++s) {
        EXPECT_EQ(got.sessions[s].digest, want.sessions[s].digest)
            << "session " << s;
        EXPECT_EQ(got.sessions[s].queries_submitted,
                  want.sessions[s].queries_submitted);
      }
    }
  }
}

}  // namespace
}  // namespace toppriv
