#include "experiments/fixture.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "search/live_engine.h"
#include "util/check.h"
#include "util/filesystem.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/strings.h"
#include "util/timer.h"

namespace toppriv::experiments {

namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  long parsed = std::strtol(v, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

std::string EnvString(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::string(v);
}

double EnvFraction(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  double parsed = std::strtod(v, &end);
  if (end == v) return fallback;
  return std::min(1.0, std::max(0.0, parsed));
}

std::optional<index::live::DurabilityPolicy> EnvDurability(const char* name) {
  const std::string v = EnvString(name, "off");
  if (v == "off") return std::nullopt;
  if (v == "batch") return index::live::DurabilityPolicy::kPerBatch;
  if (v == "refresh") return index::live::DurabilityPolicy::kPerRefresh;
  if (v == "manual") return index::live::DurabilityPolicy::kManual;
  std::fprintf(stderr,
               "[fixture] unknown %s='%s' (want off|batch|refresh|manual); "
               "running in-memory\n",
               name, v.c_str());
  return std::nullopt;
}

// FNV-1a over a byte string, for cache keys.
uint64_t HashBytes(uint64_t h, const std::string& s) {
  for (unsigned char c : s) h = util::Fnv1aStep(h, c);
  return h;
}

/// FNV-1a over the corpus's token stream, each document prefixed by its
/// length so boundaries count, plus the vocabulary size. Any change to
/// the generator, its parameters or the analyzer that changes what the
/// trainer sees changes this hash.
uint64_t HashCorpus(const corpus::Corpus& corpus) {
  uint64_t h = util::Fnv1aStep(util::kFnv1aOffsetBasis,
                               corpus.vocabulary_size());
  for (const corpus::Document& doc : corpus.documents()) {
    h = util::Fnv1aStep(h, doc.tokens.size());
    for (text::TermId t : doc.tokens) h = util::Fnv1aStep(h, t);
  }
  return h;
}

}  // namespace

FixtureConfig FixtureConfig::FromEnv() {
  FixtureConfig config;
  config.corpus_params.num_docs = EnvSize("TOPPRIV_DOCS", 1500);
  config.corpus_params.mean_doc_length =
      static_cast<double>(EnvSize("TOPPRIV_DOC_LEN", 100));
  config.corpus_params.tail_vocab_size = EnvSize("TOPPRIV_TAIL_VOCAB", 3000);
  config.workload_params.num_queries = EnvSize("TOPPRIV_QUERIES", 150);
  config.lda_iterations = EnvSize("TOPPRIV_LDA_ITERS", 100);
  config.cache_dir = EnvString("TOPPRIV_CACHE_DIR", ".toppriv_cache");
  config.num_shards = EnvSize("TOPPRIV_SHARDS", 1);
  config.shard_threads = EnvSize("TOPPRIV_SHARD_THREADS", 1);
  config.live_ingest_upfront = EnvFraction("TOPPRIV_LIVE_INGEST", 0.5);
  config.durability = EnvDurability("TOPPRIV_DURABILITY");
  return config;
}

const std::vector<size_t>& PaperModelSizes() {
  static const std::vector<size_t>* kSizes =
      new std::vector<size_t>{50, 100, 150, 200, 250, 300};
  return *kSizes;
}

std::unique_ptr<index::live::LiveIndex> BuildSegmentedIndex(
    const corpus::Corpus& corpus, size_t num_segments) {
  TOPPRIV_CHECK_GE(num_segments, 1u);
  const size_t n = corpus.num_documents();
  index::live::LiveIndexOptions options;
  options.max_writer_docs =
      std::max<size_t>(1, (n + num_segments - 1) / num_segments);
  options.merge_factor = num_segments + 1;
  auto live = std::make_unique<index::live::LiveIndex>(options);
  live->EnsureTermSpace(corpus.vocabulary_size());
  for (size_t s = 0; s < num_segments; ++s) {
    // One batch per range, published (sealed) on its own: each non-empty
    // range becomes exactly one segment.
    const size_t begin = n * s / num_segments;
    const size_t end = n * (s + 1) / num_segments;
    index::live::StreamCorpus(corpus, begin, end,
                              std::max<size_t>(1, end - begin), live.get());
  }
  live->Refresh();
  return live;
}

ExperimentFixture::ExperimentFixture(FixtureConfig config)
    : config_(std::move(config)) {}

void ExperimentFixture::EnsureCorpus() {
  if (corpus_ != nullptr) return;
  util::WallTimer timer;
  corpus::CorpusGenerator generator(config_.corpus_params);
  corpus_ = std::make_unique<corpus::Corpus>(generator.Generate(&ground_truth_));
  std::fprintf(stderr,
               "[fixture] corpus: %zu docs, %zu terms, %llu tokens (%.1fs)\n",
               corpus_->num_documents(), corpus_->vocabulary_size(),
               static_cast<unsigned long long>(corpus_->total_tokens()),
               timer.ElapsedSeconds());
}

const corpus::Corpus& ExperimentFixture::corpus() {
  EnsureCorpus();
  return *corpus_;
}

const corpus::GroundTruthModel& ExperimentFixture::ground_truth() {
  EnsureCorpus();
  return ground_truth_;
}

const std::vector<corpus::BenchmarkQuery>& ExperimentFixture::workload() {
  if (workload_ == nullptr) {
    EnsureCorpus();
    corpus::WorkloadGenerator generator(*corpus_, ground_truth_,
                                        config_.workload_params);
    workload_ = std::make_unique<std::vector<corpus::BenchmarkQuery>>(
        generator.Generate());
  }
  return *workload_;
}

const index::InvertedIndex& ExperimentFixture::index() {
  if (index_ == nullptr) {
    EnsureCorpus();
    index_ = std::make_unique<index::InvertedIndex>(
        index::InvertedIndex::Build(*corpus_));
  }
  return *index_;
}

std::unique_ptr<index::live::LiveIndex> ExperimentFixture::MakeLiveIndex(
    double upfront_fraction, index::live::LiveIndexOptions options) {
  EnsureCorpus();
  std::unique_ptr<index::live::LiveIndex> live;
  if (config_.durability.has_value()) {
    options.durability = *config_.durability;
    util::FileSystem* fs = util::GetRealFileSystem();
    const std::string dir = config_.cache_dir + "/live_wal";
    // Each run measures its own ingest: drop the previous run's log so
    // Recover() opens a fresh generation instead of replaying stale docs.
    if (auto names = fs->List(dir); names.ok()) {
      for (const std::string& name : *names) fs->Remove(dir + "/" + name);
    }
    auto recovered = index::live::LiveIndex::Recover(fs, dir, options);
    TOPPRIV_CHECK(recovered.ok());
    live = std::move(*recovered);
  } else {
    live = std::make_unique<index::live::LiveIndex>(options);
  }
  live->EnsureTermSpace(corpus_->vocabulary_size());
  const double f = std::min(1.0, std::max(0.0, upfront_fraction));
  const size_t upfront = static_cast<size_t>(
      f * static_cast<double>(corpus_->num_documents()) + 0.5);
  // The up-front load is one batch; Refresh() regardless so even an empty
  // live index publishes its (vocabulary-synced) term space.
  index::live::StreamCorpus(*corpus_, 0, upfront,
                            std::max<size_t>(1, upfront), live.get());
  live->Refresh();
  return live;
}

std::unique_ptr<search::QueryEngine> ExperimentFixture::MakeEngine(
    std::unique_ptr<search::Scorer> scorer, size_t num_shards,
    size_t shard_threads, std::optional<search::EvalStrategy> /*strategy*/) {
  if (num_shards <= 1) {
    return std::make_unique<search::SearchEngine>(corpus(), index(),
                                                  std::move(scorer));
  }
  std::unique_ptr<index::live::LiveIndex>& segmented = segmented_[num_shards];
  if (segmented == nullptr) {
    segmented = BuildSegmentedIndex(corpus(), num_shards);
  }
  if (shard_threads == 0) {
    shard_threads = util::ThreadPool::HardwareConcurrency();
  }
  util::ThreadPool* pool = nullptr;
  if (shard_threads > 1) {
    std::unique_ptr<util::ThreadPool>& owned = fanout_pools_[shard_threads];
    if (owned == nullptr) {
      owned = std::make_unique<util::ThreadPool>(shard_threads);
    }
    pool = owned.get();
  }
  return std::make_unique<search::LiveSearchEngine>(
      corpus(), *segmented, std::move(scorer), pool);
}

std::unique_ptr<search::QueryEngine> ExperimentFixture::MakeEngine(
    std::unique_ptr<search::Scorer> scorer) {
  return MakeEngine(std::move(scorer), config_.num_shards,
                    config_.shard_threads);
}

std::string ModelCachePath(const std::string& cache_dir,
                           const corpus::Corpus& corpus,
                           size_t lda_iterations, size_t num_topics,
                           uint64_t version) {
  const std::string descriptor =
      util::StrFormat("v=%llu iters=%zu topics=%zu",
                      static_cast<unsigned long long>(version),
                      lda_iterations, num_topics);
  const uint64_t key = HashBytes(HashCorpus(corpus), descriptor);
  return util::StrFormat("%s/lda%03zu_%016llx.bin", cache_dir.c_str(),
                         num_topics, static_cast<unsigned long long>(key));
}

const topicmodel::LdaModel& ExperimentFixture::model(size_t num_topics) {
  auto it = models_.find(num_topics);
  if (it != models_.end()) return *it->second;

  EnsureCorpus();
  const std::string path =
      ModelCachePath(config_.cache_dir, *corpus_, config_.lda_iterations,
                     num_topics, kModelCacheVersion);
  if (util::FileExists(path)) {
    auto bytes = util::ReadFileToString(path);
    if (bytes.ok()) {
      auto model = topicmodel::LdaModel::Deserialize(bytes.value());
      if (model.ok() && model->vocab_size() == corpus_->vocabulary_size()) {
        auto owned = std::make_unique<topicmodel::LdaModel>(
            std::move(model).value());
        const topicmodel::LdaModel& ref = *owned;
        models_.emplace(num_topics, std::move(owned));
        std::fprintf(stderr, "[fixture] %s: loaded from cache\n",
                     ModelName(num_topics).c_str());
        return ref;
      }
    }
  }

  util::WallTimer timer;
  topicmodel::TrainerOptions options;
  options.num_topics = num_topics;
  options.iterations = config_.lda_iterations;
  options.seed = 7000 + num_topics;
  topicmodel::GibbsTrainer trainer(options);
  auto owned =
      std::make_unique<topicmodel::LdaModel>(trainer.Train(*corpus_));
  std::fprintf(stderr, "[fixture] %s: trained in %.1fs\n",
               ModelName(num_topics).c_str(), timer.ElapsedSeconds());

  // Best-effort cache write.
  if (util::MakeDirs(config_.cache_dir).ok()) {
    util::Status status = util::WriteFile(path, owned->Serialize());
    if (!status.ok()) {
      std::fprintf(stderr, "[fixture] cache write failed: %s\n",
                   status.ToString().c_str());
    }
  }

  const topicmodel::LdaModel& ref = *owned;
  models_.emplace(num_topics, std::move(owned));
  return ref;
}

std::string ExperimentFixture::ModelName(size_t num_topics) {
  return util::StrFormat("LDA%03zu", num_topics);
}

}  // namespace toppriv::experiments
