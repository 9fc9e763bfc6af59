// Unit and property tests for the search engine substrate.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "index/live/live_index.h"
#include "search/engine.h"
#include "search/eval.h"
#include "search/live_engine.h"
#include "search/scorer.h"
#include "search/topk.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace toppriv::search {
namespace {

// ------------------------------------------------------------------ TopK --

TEST(TopKTest, KeepsHighestScores) {
  TopK topk(3);
  topk.Offer(0, 1.0);
  topk.Offer(1, 5.0);
  topk.Offer(2, 3.0);
  topk.Offer(3, 4.0);
  topk.Offer(4, 0.5);
  std::vector<ScoredDoc> out = topk.Finish();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].doc, 1u);
  EXPECT_EQ(out[1].doc, 3u);
  EXPECT_EQ(out[2].doc, 2u);
}

TEST(TopKTest, TiesBreakTowardsLowerDocIds) {
  TopK topk(2);
  topk.Offer(9, 1.0);
  topk.Offer(3, 1.0);
  topk.Offer(5, 1.0);
  std::vector<ScoredDoc> out = topk.Finish();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc, 3u);
  EXPECT_EQ(out[1].doc, 5u);
}

TEST(TopKTest, FewerThanK) {
  TopK topk(10);
  topk.Offer(1, 2.0);
  topk.Offer(0, 1.0);
  std::vector<ScoredDoc> out = topk.Finish();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc, 1u);
}

class TopKProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(TopKProperty, MatchesNaiveSort) {
  util::Rng rng(GetParam() * 31 + 7);
  const size_t n = 500;
  std::vector<ScoredDoc> all;
  TopK topk(GetParam());
  for (size_t i = 0; i < n; ++i) {
    double score = rng.Uniform() * 10.0;
    // Duplicate scores occasionally to exercise tie-breaking.
    if (rng.Bernoulli(0.3)) score = std::floor(score);
    all.push_back({static_cast<corpus::DocId>(i), score});
    topk.Offer(static_cast<corpus::DocId>(i), score);
  }
  std::sort(all.begin(), all.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  all.resize(std::min(GetParam(), n));
  std::vector<ScoredDoc> got = topk.Finish();
  ASSERT_EQ(got.size(), all.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, all[i].doc) << "rank " << i;
    EXPECT_DOUBLE_EQ(got[i].score, all[i].score);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, TopKProperty,
                         ::testing::Values(1, 2, 5, 10, 50, 499, 500, 600));

// ---------------------------------------------------------------- Scorers --

std::unique_ptr<Scorer> ScorerByKind(int which) {
  switch (which) {
    case 0:
      return MakeBm25Scorer();
    case 1:
      return MakeTfIdfScorer();
    default:
      return std::make_unique<LmDirichletScorer>();
  }
}

TEST(ScorerTest, Bm25MonotoneInTf) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  CollectionStats stats = CollectionStats::Of(index);
  Bm25Scorer scorer;
  double s1 = scorer.TermScore(stats, index.DocLength(0), 1, 2, 1);
  double s2 = scorer.TermScore(stats, index.DocLength(0), 3, 2, 1);
  EXPECT_GT(s2, s1);
  EXPECT_GT(s1, 0.0);
}

TEST(ScorerTest, Bm25RarerTermsScoreHigher) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  CollectionStats stats = CollectionStats::Of(index);
  Bm25Scorer scorer;
  double rare = scorer.TermScore(stats, index.DocLength(0), 2, 1, 1);
  double common = scorer.TermScore(stats, index.DocLength(0), 2, 4, 1);
  EXPECT_GT(rare, common);
}

TEST(ScorerTest, TfIdfNormalizationDividesBySqrtLength) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  TfIdfCosineScorer scorer;
  // doc 2 has length 5.
  EXPECT_NEAR(scorer.Normalize(scorer.LengthPart(CollectionStats::Of(index),
                                                 index.DocLength(2)),
                               10.0),
              10.0 / std::sqrt(5.0), 1e-12);
}

TEST(ScorerTest, TfIdfZeroDfIsZero) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  TfIdfCosineScorer scorer;
  EXPECT_DOUBLE_EQ(
      scorer.TermScore(CollectionStats::Of(index), index.DocLength(0), 3, 0, 1),
      0.0);
}

TEST(ScorerTest, LmDirichletPrefersMatchingDocs) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  LmDirichletScorer scorer(100.0);
  double with_term =
      scorer.TermScore(CollectionStats::Of(index), index.DocLength(0), 2, 3, 1);
  EXPECT_GT(with_term, 0.0);
}

// Independently written one-shot forms of the three scoring formulas. The
// PrepareTerm + LengthPart + ScorePosting split must reproduce them bit for
// bit, so hoisting per-term and per-length constants out of the posting
// loop cannot move a result. Kinds: 0 BM25 (1.2, 0.75), 1 TF-IDF,
// 2 LM-Dirichlet (mu 1000), 3 BM25 (2.0, 0.5).
double ReferenceTermScore(int kind, const CollectionStats& stats,
                          uint32_t doc_length, uint32_t tf, uint32_t df,
                          uint32_t qtf) {
  const double n = static_cast<double>(stats.num_documents);
  switch (kind) {
    case 0:
    case 3: {
      if (df == 0) return 0.0;
      const double k1 = kind == 0 ? 1.2 : 2.0;
      const double b = kind == 0 ? 0.75 : 0.5;
      double idf = std::log(1.0 + (n - static_cast<double>(df) + 0.5) /
                                      (static_cast<double>(df) + 0.5));
      double dl = static_cast<double>(doc_length);
      double avgdl = stats.avg_doc_length;
      double denom = static_cast<double>(tf) +
                     k1 * (1.0 - b + b * (avgdl > 0.0 ? dl / avgdl : 1.0));
      double tf_part = static_cast<double>(tf) * (k1 + 1.0) / denom;
      return idf * tf_part * static_cast<double>(qtf);
    }
    case 1: {  // TF-IDF cosine
      if (df == 0) return 0.0;
      double idf = std::log(1.0 + n / static_cast<double>(df));
      double dtf = 1.0 + std::log(static_cast<double>(tf));
      double qw = static_cast<double>(qtf) * idf;
      return dtf * qw;
    }
    default: {  // LM-Dirichlet, mu = 1000
      double total = static_cast<double>(stats.total_tokens);
      if (total <= 0.0) return 0.0;
      double p_coll = static_cast<double>(df > 0 ? df : 1) / total;
      return static_cast<double>(qtf) *
             std::log(1.0 + static_cast<double>(tf) / (1000.0 * p_coll));
    }
  }
}

// One-shot per-document normalization of an accumulated score, for the
// kinds of ReferenceTermScore.
double ReferenceNormalize(int kind, uint32_t doc_length, double accumulated) {
  const double len = static_cast<double>(doc_length);
  switch (kind) {
    case 1:
      if (len <= 0.0) return 0.0;
      return accumulated / std::sqrt(len);
    case 2:
      return accumulated + std::log(1000.0 / (len + 1000.0));
    default:
      return accumulated;
  }
}

std::unique_ptr<Scorer> ReferenceScorer(int kind) {
  if (kind == 3) return MakeBm25Scorer(2.0, 0.5);
  return ScorerByKind(kind);
}

TEST(ScorerTest, PreparedTermMatchesTermScoreBitForBit) {
  const CollectionStats world_stats =
      CollectionStats::Of(toppriv::testing::World().index);
  // The World() statistics, plus degenerate collections: no length
  // statistics (BM25's avgdl == 0 branch) and no tokens (LM-Dirichlet's
  // inactive term).
  const CollectionStats grid_stats[] = {
      world_stats,
      CollectionStats{world_stats.num_documents, 0.0, world_stats.total_tokens},
      CollectionStats{7, 3.5, 0}};
  const uint32_t dfs[] = {0, 1, 2, 7, 250, 500};
  const uint32_t qtfs[] = {1, 2, 5};
  const uint32_t doc_lengths[] = {0, 1, 3, 80, 1000};
  const uint32_t tfs[] = {1, 2, 3, 17, 400};
  const double accumulated[] = {0.0, 0.37, 5.25, 123.456};
  for (int kind = 0; kind < 4; ++kind) {
    std::unique_ptr<Scorer> scorer = ReferenceScorer(kind);
    SCOPED_TRACE(scorer->Name() + " kind " + std::to_string(kind));
    for (const CollectionStats& stats : grid_stats) {
      // The per-length half, computed once per length as the evaluators'
      // tables do, and the per-document normalization it feeds.
      for (uint32_t dl : doc_lengths) {
        const double length_part = scorer->LengthPart(stats, dl);
        for (double acc : accumulated) {
          EXPECT_EQ(scorer->Normalize(length_part, acc),
                    ReferenceNormalize(kind, dl, acc))
              << "dl " << dl << " acc " << acc;
        }
      }
      for (uint32_t df : dfs) {
        for (uint32_t qtf : qtfs) {
          // Prepared once, scored over every posting shape: what the
          // evaluators do per query term.
          const PreparedTerm term = scorer->PrepareTerm(stats, df, qtf);
          for (uint32_t tf : tfs) {
            for (uint32_t dl : doc_lengths) {
              const double want =
                  ReferenceTermScore(kind, stats, dl, tf, df, qtf);
              EXPECT_EQ(
                  scorer->ScorePosting(term, scorer->LengthPart(stats, dl), tf),
                  want)
                  << "df " << df << " qtf " << qtf << " dl " << dl << " tf "
                  << tf;
              EXPECT_EQ(scorer->TermScore(stats, dl, tf, df, qtf), want);
            }
          }
        }
      }
    }
  }
}

TEST(ScorerTest, LengthKeyIsByValue) {
  const CollectionStats stats =
      CollectionStats::Of(toppriv::testing::World().index);
  CollectionStats moved = stats;
  moved.avg_doc_length = stats.avg_doc_length + 1.0;
  const Bm25Scorer bm25;
  const LengthKey key = bm25.length_key(stats);
  // Equal parameters and statistics: the same key, whichever object.
  EXPECT_EQ(Bm25Scorer(1.2, 0.75).length_key(stats).bits, key.bits);
  // Any parameter, the average length, or the scorer kind moves it.
  EXPECT_NE(Bm25Scorer(2.0, 0.75).length_key(stats).bits, key.bits);
  EXPECT_NE(Bm25Scorer(1.2, 0.5).length_key(stats).bits, key.bits);
  EXPECT_NE(bm25.length_key(moved).bits, key.bits);
  EXPECT_NE(LmDirichletScorer(1000.0).length_key(stats).bits,
            LmDirichletScorer(500.0).length_key(stats).bits);
  EXPECT_NE(TfIdfCosineScorer().length_key(stats).bits,
            LmDirichletScorer().length_key(stats).bits);
}

TEST(ScorerTest, Names) {
  EXPECT_EQ(TfIdfCosineScorer().Name(), "tfidf-cosine");
  EXPECT_EQ(Bm25Scorer().Name(), "bm25");
  EXPECT_EQ(LmDirichletScorer().Name(), "lm-dirichlet");
}

// ----------------------------------------------------------------- Engine --

TEST(EngineTest, FindsMatchingDocuments) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  SearchEngine engine(c, index, MakeBm25Scorer());
  text::TermId tank = c.vocabulary().Lookup("tank");
  std::vector<ScoredDoc> results = engine.Search({tank}, 10);
  // Docs 0, 1, 3 contain "tank"; doc 2 does not.
  ASSERT_EQ(results.size(), 3u);
  for (const ScoredDoc& sd : results) EXPECT_NE(sd.doc, 2u);
  // war1 has tank twice in 3 tokens: highest score.
  EXPECT_EQ(results[0].doc, 0u);
}

TEST(EngineTest, MatchesBruteForceScoring) {
  const auto& world = toppriv::testing::World();
  SearchEngine engine(world.corpus, world.index, MakeBm25Scorer());
  Bm25Scorer reference;

  util::Rng rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    // Random 3-term query over the vocabulary.
    std::vector<text::TermId> query;
    for (int i = 0; i < 3; ++i) {
      query.push_back(static_cast<text::TermId>(
          rng.UniformInt(uint64_t{world.corpus.vocabulary_size()})));
    }
    std::vector<ScoredDoc> got = engine.Evaluate(query, 20);

    // Brute force: score every document directly.
    CollectionStats stats = CollectionStats::Of(world.index);
    std::map<text::TermId, uint32_t> qtf;
    for (text::TermId t : query) ++qtf[t];
    TopK expected(20);
    for (const corpus::Document& d : world.corpus.documents()) {
      std::map<text::TermId, uint32_t> tf;
      for (text::TermId t : d.tokens) ++tf[t];
      double score = 0.0;
      bool any = false;
      for (const auto& [term, qcount] : qtf) {
        auto it = tf.find(term);
        if (it == tf.end()) continue;
        any = true;
        score += reference.TermScore(stats, world.index.DocLength(d.id),
                                     it->second, world.index.DocFreq(term),
                                     qcount);
      }
      if (any) expected.Offer(d.id, score);
    }
    std::vector<ScoredDoc> want = expected.Finish();
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].doc, want[i].doc);
      EXPECT_NEAR(got[i].score, want[i].score, 1e-9);
    }
  }
}

// Reference implementation of Evaluate as it existed before the contiguous
// accumulator: term-at-a-time into an unordered_map. Uses the same
// canonical CollapseQuery term order, so the floating-point accumulation
// order is identical and the comparison below can demand bit equality.
std::vector<ScoredDoc> MapBasedEvaluate(const index::InvertedIndex& index,
                                        const Scorer& scorer,
                                        const std::vector<text::TermId>& terms,
                                        size_t k) {
  if (terms.empty() || k == 0) return {};
  CollectionStats stats = CollectionStats::Of(index);
  std::unordered_map<corpus::DocId, double> accumulators;
  for (const QueryTerm& qt : CollapseQuery(terms)) {
    const index::PostingList& list = index.Postings(qt.term);
    uint32_t df = list.size();
    if (df == 0) continue;
    for (auto it = list.begin(); it.Valid(); it.Next()) {
      const index::Posting& p = it.Get();
      accumulators[p.doc] +=
          scorer.TermScore(stats, index.DocLength(p.doc), p.tf, df, qt.qtf);
    }
  }
  TopK topk(k);
  for (const auto& [doc, acc] : accumulators) {
    topk.Offer(doc, scorer.Normalize(
                        scorer.LengthPart(stats, index.DocLength(doc)), acc));
  }
  return topk.Finish();
}

TEST(EngineTest, ContiguousAccumulatorMatchesMapBasedEvaluateBitForBit) {
  // Parity lock for the accumulator rewrite: same generated corpus, same
  // queries, identical ranked results — docs, order, and score BITS.
  const auto& world = toppriv::testing::World();
  for (int s = 0; s < 2; ++s) {
    SearchEngine engine(world.corpus, world.index,
                        s == 0 ? MakeBm25Scorer() : MakeTfIdfScorer());
    util::Rng rng(911 + s);
    for (int trial = 0; trial < 30; ++trial) {
      // Mix workload queries with random ones (incl. repeated terms).
      std::vector<text::TermId> query;
      if (trial < 10) {
        query = world.workload[trial].term_ids;
      } else {
        size_t len = 1 + rng.UniformInt(uint64_t{6});
        for (size_t i = 0; i < len; ++i) {
          query.push_back(static_cast<text::TermId>(
              rng.UniformInt(uint64_t{world.corpus.vocabulary_size()})));
        }
      }
      std::vector<ScoredDoc> want =
          MapBasedEvaluate(world.index, engine.scorer(), query, 15);
      // Evaluate reuses its thread-local scratch across all trials: reuse
      // must not leak state between queries.
      std::vector<ScoredDoc> got = engine.Evaluate(query, 15);
      ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].doc, want[i].doc) << "trial " << trial;
        // Bit equality, not EXPECT_NEAR: the rewrite promises the identical
        // accumulation order.
        EXPECT_EQ(got[i].score, want[i].score) << "trial " << trial;
      }
    }
  }
}

TEST(EngineTest, EmptyQueryReturnsNothing) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  SearchEngine engine(c, index, MakeBm25Scorer());
  EXPECT_TRUE(engine.Search({}, 10).empty());
  EXPECT_TRUE(engine.Evaluate({0}, 0).empty());
}

TEST(EngineTest, QueryLogRecordsEverything) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  SearchEngine engine(c, index, MakeBm25Scorer());
  engine.Search({0}, 5, /*cycle_id=*/1);
  engine.Search({1, 2}, 5, /*cycle_id=*/1);
  engine.Search({3}, 5, /*cycle_id=*/2);
  const QueryLog& log = engine.query_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.entries()[0].cycle_id, 1u);
  EXPECT_EQ(log.entries()[1].cycle_id, 1u);
  EXPECT_EQ(log.entries()[2].cycle_id, 2u);
  EXPECT_EQ(log.entries()[1].terms, (std::vector<text::TermId>{1, 2}));
  EXPECT_EQ(log.entries()[0].sequence, 0u);
  EXPECT_EQ(log.entries()[2].sequence, 2u);
  engine.mutable_query_log().Clear();
  EXPECT_EQ(engine.query_log().size(), 0u);
}

TEST(EngineTest, EvaluateDoesNotLog) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  SearchEngine engine(c, index, MakeBm25Scorer());
  engine.Evaluate({0}, 5);
  EXPECT_EQ(engine.query_log().size(), 0u);
}

// ----------------------------------------------------------- Eval kernel --

void ExpectSameBits(const std::vector<ScoredDoc>& got,
                    const std::vector<ScoredDoc>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
  }
}

// Results of a static engine built fresh over `index` and run on a thread
// of its own, so its scratch (and length table) has served nothing else.
std::vector<std::vector<ScoredDoc>> FreshThreadResults(
    const corpus::Corpus& corpus, const index::InvertedIndex& index,
    std::unique_ptr<Scorer> scorer,
    const std::vector<std::vector<text::TermId>>& queries, size_t k) {
  std::vector<std::vector<ScoredDoc>> results;
  std::thread worker([&] {
    const SearchEngine engine(corpus, index, std::move(scorer));
    for (const auto& q : queries) results.push_back(engine.Evaluate(q, k));
  });
  worker.join();
  return results;
}

std::vector<std::vector<text::TermId>> KernelQueries(size_t limit) {
  std::vector<std::vector<text::TermId>> queries;
  for (const auto& q : toppriv::testing::World().workload) {
    if (queries.size() == limit) break;
    queries.push_back(q.term_ids);
  }
  return queries;
}

TEST(EvalKernelTest, EnginesSharingAThreadShareNoStaleLengthTable) {
  // One thread's scratch serves engines with different BM25 parameters in
  // turn; the by-value length key must rebuild the table at every switch
  // (and serve the repeated middle configuration from the same table).
  const auto& world = toppriv::testing::World();
  const auto queries = KernelQueries(20);
  const size_t k = 10;
  struct Config {
    double k1;
    double b;
  };
  const Config configs[] = {{1.2, 0.75}, {2.0, 0.5}, {2.0, 0.5}, {1.2, 0.75}};
  std::vector<std::unique_ptr<SearchEngine>> engines;
  std::vector<std::vector<std::vector<ScoredDoc>>> want;
  for (const Config& c : configs) {
    engines.push_back(std::make_unique<SearchEngine>(
        world.corpus, world.index, MakeBm25Scorer(c.k1, c.b)));
    want.push_back(FreshThreadResults(world.corpus, world.index,
                                      MakeBm25Scorer(c.k1, c.b), queries, k));
  }
  ASSERT_NE(want[0][0][0].score, want[1][0][0].score);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (size_t e = 0; e < engines.size(); ++e) {
      SCOPED_TRACE(::testing::Message() << "query " << qi << " engine " << e);
      ExpectSameBits(engines[e]->Evaluate(queries[qi], k), want[e][qi]);
    }
  }
}

TEST(EvalKernelTest, LiveEngineFollowsAvgDocLengthAcrossRefresh) {
  // Ingesting long documents moves the live collection's avg_doc_length
  // and its largest document length; the next evaluation on the same
  // thread must miss the old table, not reuse it.
  const auto& world = toppriv::testing::World();
  const auto queries = KernelQueries(20);
  const size_t k = 10;
  const size_t vocab = world.corpus.vocabulary_size();
  std::vector<std::vector<text::TermId>> docs;
  for (size_t d = 0; d < 200; ++d) {
    docs.push_back(world.corpus.documents()[d].tokens);
  }
  auto corpus_of = [&](const std::vector<std::vector<text::TermId>>& ds) {
    corpus::Corpus c;
    for (size_t t = 0; t < vocab; ++t) {
      c.mutable_vocabulary().AddTerm("t" + std::to_string(t));
    }
    for (size_t d = 0; d < ds.size(); ++d) {
      c.AddDocument("d" + std::to_string(d), ds[d]);
    }
    return c;
  };

  index::live::LiveIndex live;
  live.EnsureTermSpace(vocab);
  live.Ingest(docs);
  const double avgdl_before = live.Refresh()->avg_doc_length();
  const corpus::Corpus host = corpus_of({});
  LiveSearchEngine engine(host, live, MakeBm25Scorer());
  // A static engine over other statistics, interleaved on this thread.
  SearchEngine other(world.corpus, world.index, MakeBm25Scorer());

  for (int stage = 0; stage < 2; ++stage) {
    if (stage == 1) {
      std::vector<std::vector<text::TermId>> long_docs;
      for (size_t d = 200; d < 240; ++d) {
        std::vector<text::TermId> tokens;
        for (int rep = 0; rep < 5; ++rep) {
          const auto& t = world.corpus.documents()[d].tokens;
          tokens.insert(tokens.end(), t.begin(), t.end());
        }
        long_docs.push_back(tokens);
      }
      live.Ingest(long_docs);
      docs.insert(docs.end(), long_docs.begin(), long_docs.end());
      EXPECT_GT(live.Refresh()->avg_doc_length(), avgdl_before);
    }
    const corpus::Corpus expected = corpus_of(docs);
    const index::InvertedIndex static_index =
        index::InvertedIndex::Build(expected);
    const auto want =
        FreshThreadResults(expected, static_index, MakeBm25Scorer(), queries,
                           k);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      SCOPED_TRACE(::testing::Message() << "stage " << stage << " query "
                                        << qi);
      ExpectSameBits(engine.Evaluate(queries[qi], k), want[qi]);
      other.Evaluate(queries[qi], k);
    }
  }
}

// ------------------------------------------------------------------- Eval --

TEST(EvalTest, PrecisionRecallKnownCase) {
  std::vector<ScoredDoc> ranked = {{1, .9}, {2, .8}, {3, .7}, {4, .6}};
  std::vector<corpus::DocId> relevant = {2, 4, 9};
  EXPECT_DOUBLE_EQ(PrecisionAtK(ranked, relevant, 2), 0.5);
  EXPECT_DOUBLE_EQ(PrecisionAtK(ranked, relevant, 4), 0.5);
  EXPECT_DOUBLE_EQ(RecallAtK(ranked, relevant, 2), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(RecallAtK(ranked, relevant, 4), 2.0 / 3.0);
}

TEST(EvalTest, AveragePrecisionKnownCase) {
  std::vector<ScoredDoc> ranked = {{1, .9}, {2, .8}, {3, .7}};
  std::vector<corpus::DocId> relevant = {1, 3};
  // Hits at ranks 1 and 3: AP = (1/1 + 2/3) / 2.
  EXPECT_NEAR(AveragePrecision(ranked, relevant), (1.0 + 2.0 / 3.0) / 2.0,
              1e-12);
}

TEST(EvalTest, NdcgPerfectRankingIsOne) {
  std::vector<ScoredDoc> ranked = {{1, .9}, {2, .8}, {3, .7}};
  std::vector<corpus::DocId> relevant = {1, 2};
  EXPECT_NEAR(NdcgAtK(ranked, relevant, 3), 1.0, 1e-12);
  // Relevant docs at the bottom score lower.
  std::vector<ScoredDoc> bad = {{3, .9}, {1, .8}, {2, .7}};
  EXPECT_LT(NdcgAtK(bad, relevant, 3), 1.0);
}

TEST(EvalTest, EmptyInputs) {
  EXPECT_DOUBLE_EQ(PrecisionAtK({}, {1}, 0), 0.0);
  EXPECT_DOUBLE_EQ(RecallAtK({{1, 1.0}}, {}, 5), 0.0);
  EXPECT_DOUBLE_EQ(AveragePrecision({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(NdcgAtK({}, {}, 5), 0.0);
}

TEST(EvalTest, SameRanking) {
  std::vector<ScoredDoc> a = {{1, 1.0}, {2, 0.5}};
  std::vector<ScoredDoc> b = {{1, 1.0 + 1e-12}, {2, 0.5}};
  std::vector<ScoredDoc> c = {{2, 1.0}, {1, 0.5}};
  EXPECT_TRUE(SameRanking(a, b, 1e-9));
  EXPECT_FALSE(SameRanking(a, c, 1e-9));
  EXPECT_FALSE(SameRanking(a, {}, 1e-9));
}

TEST(EvalTest, RetrievalQualityOnTopicalQueries) {
  // Sanity check of the whole retrieval substrate: for a topical query, the
  // top results should be documents whose ground-truth mixture favors the
  // query's intent topic.
  const auto& world = toppriv::testing::World();
  SearchEngine engine(world.corpus, world.index, MakeBm25Scorer());
  size_t good = 0, total = 0;
  for (size_t qi = 0; qi < 10; ++qi) {
    const corpus::BenchmarkQuery& q = world.workload[qi];
    std::vector<ScoredDoc> results = engine.Evaluate(q.term_ids, 5);
    for (const ScoredDoc& sd : results) {
      const corpus::Document& d = world.corpus.document(sd.doc);
      float intent_mass = 0.f;
      for (uint32_t t : q.intent_topics) intent_mass += d.true_mixture[t];
      ++total;
      if (intent_mass > 0.2f) ++good;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(good) / static_cast<double>(total), 0.7);
}

}  // namespace
}  // namespace toppriv::search
