// Shared fixtures for the test suite: a small deterministic corpus and a
// trained LDA model, built once per test binary (training is the slow part),
// plus a helper that serves a corpus as several sealed live-index segments.
#ifndef TOPPRIV_TESTS_TEST_HELPERS_H_
#define TOPPRIV_TESTS_TEST_HELPERS_H_

#include <memory>
#include <vector>

#include "corpus/corpus.h"
#include "corpus/generator.h"
#include "corpus/workload.h"
#include "index/inverted_index.h"
#include "index/live/live_index.h"
#include "topicmodel/gibbs_trainer.h"
#include "topicmodel/lda_model.h"
#include "util/check.h"

namespace toppriv::testing {

/// Everything the cross-module tests need, built once.
struct SharedWorld {
  corpus::GeneratorParams params;
  corpus::Corpus corpus;
  corpus::GroundTruthModel truth;
  index::InvertedIndex index;
  topicmodel::LdaModel model;  // 40 topics
  std::vector<corpus::BenchmarkQuery> workload;
};

/// Returns the lazily-built shared world (500 docs, 40-topic model,
/// 40 queries). Deterministic across runs.
inline const SharedWorld& World() {
  static const SharedWorld* world = [] {
    auto* w = new SharedWorld();
    w->params.num_docs = 500;
    w->params.mean_doc_length = 80;
    w->params.tail_vocab_size = 800;
    corpus::CorpusGenerator generator(w->params);
    w->corpus = generator.Generate(&w->truth);
    w->index = index::InvertedIndex::Build(w->corpus);
    topicmodel::TrainerOptions options;
    options.num_topics = 40;
    options.iterations = 50;
    options.seed = 99;
    w->model = topicmodel::GibbsTrainer(options).Train(w->corpus);
    corpus::WorkloadParams wp;
    wp.num_queries = 40;
    w->workload =
        corpus::WorkloadGenerator(w->corpus, w->truth, wp).Generate();
    return w;
  }();
  return *world;
}

/// A tiny hand-rolled corpus with two crisp topics, for unit tests that
/// need full control (index/search correctness checks).
inline corpus::Corpus TinyCorpus() {
  corpus::Corpus c;
  text::Vocabulary& vocab = c.mutable_vocabulary();
  // Terms 0..3: "tank" "missile" "stock" "market".
  text::TermId tank = vocab.AddTerm("tank");
  text::TermId missile = vocab.AddTerm("missile");
  text::TermId stock = vocab.AddTerm("stock");
  text::TermId market = vocab.AddTerm("market");
  c.AddDocument("war1", {tank, tank, missile});
  c.AddDocument("war2", {missile, tank});
  c.AddDocument("fin1", {stock, market, market, stock, stock});
  c.AddDocument("mix1", {tank, stock});
  return c;
}

/// `corpus` as `num_segments` sealed segments of one in-memory LiveIndex,
/// over the contiguous near-equal doc ranges [N*s/K, N*(s+1)/K), each range
/// one ingest batch published on its own (K <= N, so none is empty). With
/// merge_factor K + 1 no merge collapses them; dense ids equal corpus doc
/// ids and the term space is synced to the vocabulary, so a
/// LiveSearchEngine over it must match the monolithic SearchEngine bit for
/// bit.
inline std::unique_ptr<index::live::LiveIndex> SegmentedIndex(
    const corpus::Corpus& corpus, size_t num_segments) {
  const size_t n = corpus.num_documents();
  TOPPRIV_CHECK(num_segments >= 1 && num_segments <= n);
  index::live::LiveIndexOptions options;
  options.max_writer_docs = (n + num_segments - 1) / num_segments;
  options.merge_factor = num_segments + 1;
  auto live = std::make_unique<index::live::LiveIndex>(options);
  live->EnsureTermSpace(corpus.vocabulary_size());
  for (size_t s = 0; s < num_segments; ++s) {
    const size_t begin = n * s / num_segments;
    const size_t end = n * (s + 1) / num_segments;
    index::live::StreamCorpus(corpus, begin, end, end - begin, live.get());
  }
  return live;
}

}  // namespace toppriv::testing

#endif  // TOPPRIV_TESTS_TEST_HELPERS_H_
