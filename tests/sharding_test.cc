// Parity suite for sharding as a segment partition.
//
// A static corpus served as K sealed segments of one LiveIndex
// (testing::SegmentedIndex) by LiveSearchEngine, which scatters a query
// over the segments one after another. The contract under test: the
// partition is INVISIBLE. Results are bit-identical to the monolithic
// SearchEngine's, exact cross-segment ties order by doc id, the
// snapshot's statistics (aggregates, per-term df, per-dense-id document
// length) equal the static build's, and concurrent callers and a served
// SessionDriver see no difference either. Any-schedule live parity is
// tests/live_index_test.cc.
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "index/inverted_index.h"
#include "index/live/live_index.h"
#include "search/engine.h"
#include "search/live_engine.h"
#include "search/scorer.h"
#include "serving/session_driver.h"
#include "tests/test_helpers.h"
#include "topicmodel/inference.h"
#include "util/rng.h"

namespace toppriv {
namespace {

using index::IndexStats;
using index::InvertedIndex;
using index::live::IndexSnapshot;
using index::live::LiveIndex;
using search::LiveSearchEngine;
using search::ScoredDoc;
using toppriv::testing::SegmentedIndex;
using toppriv::testing::World;

using Doc = std::vector<text::TermId>;

void ExpectBitIdentical(const std::vector<ScoredDoc>& got,
                        const std::vector<ScoredDoc>& want,
                        const char* context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << context << " rank " << i;
    // Bit equality: the segment scatter runs the identical floating-point
    // ops in the identical order as the monolithic engine.
    EXPECT_EQ(got[i].score, want[i].score) << context << " rank " << i;
  }
}

void ExpectStatsEqual(const IndexStats& got, const IndexStats& want) {
  EXPECT_EQ(got.num_terms, want.num_terms);
  EXPECT_EQ(got.num_documents, want.num_documents);
  EXPECT_EQ(got.total_postings, want.total_postings);
  EXPECT_EQ(got.max_list_length, want.max_list_length);
  EXPECT_EQ(got.encoded_bytes, want.encoded_bytes);
  EXPECT_EQ(got.pir_padded_bytes, want.pir_padded_bytes);
  EXPECT_DOUBLE_EQ(got.avg_list_length, want.avg_list_length);
}

// Random queries over a 7-segment partition (uneven ranges: 7 does not
// divide 500), half of them drawing past the vocabulary to hit empty
// lists, half repeating a term so the qtf collapse must match too.
TEST(ShardingParityTest, RandomQueriesIncludingRepeatsAndUnknownTerms) {
  const auto& world = World();
  std::unique_ptr<LiveIndex> live = SegmentedIndex(world.corpus, 7);
  ASSERT_EQ(live->num_segments(), 7u);
  search::SearchEngine mono(world.corpus, world.index,
                            search::MakeBm25Scorer());
  LiveSearchEngine engine(world.corpus, *live, search::MakeBm25Scorer());
  util::Rng rng(4242);
  for (int trial = 0; trial < 80; ++trial) {
    SCOPED_TRACE(trial);
    const size_t len = 1 + rng.UniformInt(uint64_t{6});
    Doc query;
    for (size_t i = 0; i < len; ++i) {
      const uint64_t space =
          world.corpus.vocabulary_size() + (trial % 2 ? 50 : 0);
      query.push_back(static_cast<text::TermId>(rng.UniformInt(space)));
    }
    if (len > 1 && trial % 2 == 0) query.push_back(query[0]);
    ExpectBitIdentical(engine.Evaluate(query, 15), mono.Evaluate(query, 15),
                       "random");
  }
}

/// Segment of `snapshot` holding dense id `doc`.
size_t SegmentHolding(const IndexSnapshot& snapshot, corpus::DocId doc) {
  size_t s = 0;
  while (s + 1 < snapshot.num_segments() &&
         snapshot.segment(s + 1).dense_base <= doc) {
    ++s;
  }
  return s;
}

// Documents with IDENTICAL content in DIFFERENT segments score exactly
// equal (same tf, same length, same collection statistics → same double
// bits). The merged ranking must order them by doc id however the
// collection is partitioned, also when k truncates through the tie.
TEST(ShardingTieBreakTest, ExactCrossSegmentTiesOrderByDocId) {
  corpus::Corpus c;
  text::Vocabulary& vocab = c.mutable_vocabulary();
  text::TermId a = vocab.AddTerm("alpha");
  text::TermId b = vocab.AddTerm("beta");
  text::TermId filler = vocab.AddTerm("filler");
  // Docs 0, 2 and 5 are identical; doc 3 matches but is longer, so it
  // scores strictly lower.
  c.AddDocument("d0", {a, b});
  c.AddDocument("d1", {filler, filler});
  c.AddDocument("d2", {a, b});
  c.AddDocument("d3", {a, filler, filler});
  c.AddDocument("d4", {filler});
  c.AddDocument("d5", {a, b});

  InvertedIndex mono_index = InvertedIndex::Build(c);
  search::SearchEngine mono(c, mono_index, search::MakeBm25Scorer());
  const std::vector<ScoredDoc> want = mono.Evaluate({a}, 6);
  // The tie really is exact: three equal leading scores.
  ASSERT_GE(want.size(), 3u);
  ASSERT_EQ(want[0].score, want[1].score);
  ASSERT_EQ(want[1].score, want[2].score);
  EXPECT_EQ(want[0].doc, 0u);
  EXPECT_EQ(want[1].doc, 2u);
  EXPECT_EQ(want[2].doc, 5u);

  for (size_t num_segments : {size_t{2}, size_t{3}, size_t{6}}) {
    SCOPED_TRACE(num_segments);
    std::unique_ptr<LiveIndex> live = SegmentedIndex(c, num_segments);
    ASSERT_EQ(live->num_segments(), num_segments);
    // The tied docs must actually span segments for the test to bite.
    const auto snapshot = live->Acquire();
    EXPECT_NE(SegmentHolding(*snapshot, 0), SegmentHolding(*snapshot, 5));
    LiveSearchEngine engine(c, *live, search::MakeBm25Scorer());
    ExpectBitIdentical(engine.Evaluate({a}, 6), want, "tie/full");
    const std::vector<ScoredDoc> top2 = engine.Evaluate({a}, 2);
    ASSERT_EQ(top2.size(), 2u);
    EXPECT_EQ(top2[0].doc, 0u);
    EXPECT_EQ(top2[1].doc, 2u);
  }
}

// A partition's snapshot answers every collection statistic as the static
// build does: the aggregates (encoded_bytes included, which summing
// segment ByteSize()s cannot recover, as each segment re-anchors its first
// posting — the paper's §II PIR arithmetic is partition-invariant), the
// per-term df and per-dense-id document length, and segments that tile the
// dense id space in order.
TEST(ShardingStatsTest, StatsDocFreqAndDocLengthMatchStaticBuild) {
  const auto& world = World();
  const size_t n = world.corpus.num_documents();
  const IndexStats want = world.index.ComputeStats();
  util::Rng rng(1337);
  for (size_t num_segments : {size_t{2}, size_t{4}, size_t{7}}) {
    SCOPED_TRACE(num_segments);
    std::unique_ptr<LiveIndex> live = SegmentedIndex(world.corpus, num_segments);
    const auto snapshot = live->Acquire();
    ASSERT_EQ(snapshot->num_segments(), num_segments);
    ExpectStatsEqual(snapshot->ComputeStats(), want);
    EXPECT_EQ(snapshot->num_documents(), world.index.num_documents());
    EXPECT_EQ(snapshot->num_terms(), world.index.num_terms());
    EXPECT_EQ(snapshot->total_tokens(), world.index.total_tokens());
    EXPECT_DOUBLE_EQ(snapshot->avg_doc_length(), world.index.avg_doc_length());

    corpus::DocId expected_base = 0;
    uint64_t postings = 0;
    for (size_t s = 0; s < num_segments; ++s) {
      const index::live::SnapshotSegment& ss = snapshot->segment(s);
      EXPECT_EQ(ss.dense_base, expected_base);
      EXPECT_GE(ss.live_docs, 1u);
      EXPECT_LE(ss.live_docs, (n + num_segments - 1) / num_segments);
      expected_base += ss.live_docs;
      postings += ss.segment->index().ComputeStats().total_postings;
    }
    EXPECT_EQ(expected_base, n);
    EXPECT_EQ(postings, want.total_postings);

    for (int trial = 0; trial < 200; ++trial) {
      const text::TermId term = static_cast<text::TermId>(
          rng.UniformInt(uint64_t{world.corpus.vocabulary_size()}));
      EXPECT_EQ(snapshot->DocFreq(term), world.index.DocFreq(term))
          << "term " << term;
      // Per-segment dfs must additionally SUM to the global df.
      uint32_t sum = 0;
      for (size_t s = 0; s < num_segments; ++s) {
        sum += snapshot->segment(s).segment->index().DocFreq(term);
      }
      EXPECT_EQ(sum, world.index.DocFreq(term)) << "term " << term;
      const corpus::DocId doc =
          static_cast<corpus::DocId>(rng.UniformInt(uint64_t{n}));
      EXPECT_EQ(snapshot->DocLength(doc), world.index.DocLength(doc))
          << "doc " << doc;
    }
    // Out-of-vocabulary terms have zero frequency everywhere.
    EXPECT_EQ(snapshot->DocFreq(static_cast<text::TermId>(
                  world.corpus.vocabulary_size() + 3)),
              0u);
  }
}

TEST(ShardingParityTest, SearchLogsAndEvaluateDoesNot) {
  std::unique_ptr<LiveIndex> live = SegmentedIndex(World().corpus, 2);
  LiveSearchEngine engine(World().corpus, *live, search::MakeBm25Scorer());
  engine.Search({1, 2}, 5, /*cycle_id=*/9);
  engine.Evaluate({3}, 5);  // must NOT log
  EXPECT_TRUE(engine.Evaluate({}, 10).empty());
  EXPECT_TRUE(engine.Evaluate({0}, 0).empty());
  ASSERT_EQ(engine.query_log().size(), 1u);
  EXPECT_EQ(engine.query_log().entries()[0].cycle_id, 9u);
  EXPECT_EQ(engine.query_log().entries()[0].terms, (Doc{1, 2}));
}

// Four callers share one multi-segment engine at once (the serving
// fleet's shape, and this suite's ThreadSanitizer target for the
// thread-local evaluation scratch): every result is bit-identical to the
// sequential pass.
TEST(ShardingConcurrencyTest, ConcurrentCallersMatchSequential) {
  const auto& world = World();
  std::unique_ptr<LiveIndex> live = SegmentedIndex(world.corpus, 7);
  const LiveSearchEngine engine(world.corpus, *live,
                                search::MakeBm25Scorer());
  std::vector<std::vector<ScoredDoc>> want;
  for (const auto& q : world.workload) {
    want.push_back(engine.Evaluate(q.term_ids, 10));
  }
  std::vector<std::thread> callers;
  for (size_t c = 0; c < 4; ++c) {
    callers.emplace_back([&, c] {
      for (size_t i = 0; i < world.workload.size(); ++i) {
        const size_t qi = (i + c) % world.workload.size();
        ExpectBitIdentical(engine.Evaluate(world.workload[qi].term_ids, 10),
                           want[qi], "concurrent");
      }
    });
  }
  for (std::thread& t : callers) t.join();
}

// The full-stack invariant: a SessionDriver serving concurrent sessions
// over a 4-segment engine produces the digests of the same driver over the
// monolithic engine, at every driver thread count.
TEST(ShardedServingTest, DriverDigestsMatchMonolithicAcrossThreadCounts) {
  const auto& world = World();
  topicmodel::LdaInferencer inferencer(world.model);
  std::vector<Doc> queries;
  for (size_t i = 0; i < 8; ++i) {
    queries.push_back(world.workload[i % world.workload.size()].term_ids);
  }
  const std::vector<serving::SessionWorkload> sessions =
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
  const serving::ServingReport want = run(mono, 1);
  std::unique_ptr<LiveIndex> live = SegmentedIndex(world.corpus, 4);
  LiveSearchEngine engine(world.corpus, *live, search::MakeBm25Scorer());
  for (size_t driver_threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(driver_threads);
    const serving::ServingReport got = run(engine, driver_threads);
    ASSERT_EQ(got.sessions.size(), want.sessions.size());
    for (size_t s = 0; s < got.sessions.size(); ++s) {
      EXPECT_EQ(got.sessions[s].digest, want.sessions[s].digest)
          << "session " << s;
      EXPECT_EQ(got.sessions[s].queries_submitted,
                want.sessions[s].queries_submitted);
    }
  }
}

}  // namespace
}  // namespace toppriv
