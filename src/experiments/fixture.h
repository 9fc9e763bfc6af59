// Shared experiment fixture: deterministically builds (and disk-caches) the
// synthetic corpus, the query workload, the inverted index and the six LDA
// models (LDA050..LDA300) that every bench binary consumes.
//
// Scale knobs come from the environment so the same binaries run in seconds
// on a laptop or at full scale:
//   TOPPRIV_DOCS        corpus size               (default 1500)
//   TOPPRIV_DOC_LEN     mean document length      (default 100)
//   TOPPRIV_TAIL_VOCAB  pseudo-word tail size     (default 3000)
//   TOPPRIV_QUERIES     workload size             (default 150, as the paper)
//   TOPPRIV_LDA_ITERS   Gibbs sweeps              (default 100)
//   TOPPRIV_CACHE_DIR   LDA model cache directory (default .toppriv_cache)
//   TOPPRIV_LIVE_INGEST fraction of the corpus ingested up-front into a
//                          MakeLiveIndex live index (default 0.5); the
//                          rest streams in during the serving run
//   TOPPRIV_DURABILITY  WAL mode for MakeLiveIndex indexes: off (default,
//                          in-memory), batch, refresh or manual. When on,
//                          the index is opened with LiveIndex::Recover()
//                          under <cache_dir>/live_wal (wiped per run so
//                          figures measure this run's ingest, not replay)
#ifndef TOPPRIV_EXPERIMENTS_FIXTURE_H_
#define TOPPRIV_EXPERIMENTS_FIXTURE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "corpus/generator.h"
#include "corpus/workload.h"
#include "index/inverted_index.h"
#include "index/live/live_index.h"
#include "search/engine.h"
#include "search/scorer.h"
#include "topicmodel/gibbs_trainer.h"
#include "topicmodel/lda_model.h"

namespace toppriv::experiments {

/// Fixture configuration (see file comment for the environment knobs).
struct FixtureConfig {
  corpus::GeneratorParams corpus_params;
  corpus::WorkloadParams workload_params;
  size_t lda_iterations = 100;
  std::string cache_dir = ".toppriv_cache";
  /// Always 1; ExperimentFixture's constructor checks both. Kept only for
  /// perfbench/, which sets them; remove them with that use.
  size_t num_shards = 1;
  size_t shard_threads = 1;
  /// Always kTAAT; nothing reads it. Kept only for perfbench/, which sets
  /// it; remove in the next benchmark PR.
  search::EvalStrategy eval_strategy = search::EvalStrategy::kTAAT;
  /// Fraction of the corpus a MakeLiveIndex live index ingests up-front
  /// (TOPPRIV_LIVE_INGEST, clamped to [0, 1]); the remainder is streamed
  /// during the serving run's mixed read/write phase.
  double live_ingest_upfront = 0.5;
  /// WAL sync discipline for MakeLiveIndex indexes (TOPPRIV_DURABILITY:
  /// off | batch | refresh | manual). Unset = in-memory, as before; set,
  /// MakeLiveIndex opens the index durably under <cache_dir>/live_wal so
  /// the serving benches measure the ingest path with logging + fsync on.
  std::optional<index::live::DurabilityPolicy> durability;

  /// Reads the TOPPRIV_* environment variables over the defaults.
  static FixtureConfig FromEnv();
};

/// The six model sizes the paper evaluates (LDA050 .. LDA300).
const std::vector<size_t>& PaperModelSizes();

/// Version of everything that turns a corpus into a cached model besides
/// the corpus itself: the Gibbs trainer, its seeding, and the LdaModel
/// serialization format. Bump it with any change to those, so a cache
/// written by the old code misses instead of silently loading.
inline constexpr uint64_t kModelCacheVersion = 2;

/// Where the model cache under `cache_dir` keeps the `num_topics`-topic
/// model trained with `lda_iterations` sweeps over `corpus` by trainer code
/// of `version`. Keyed on what the trainer consumes (the token stream) and
/// the code that consumes it (the version) rather than on generator
/// parameters, so no parameter or generator change can reload a model
/// trained on a different corpus: load time only checks the vocabulary
/// size. ExperimentFixture reads and writes at kModelCacheVersion.
std::string ModelCachePath(const std::string& cache_dir,
                           const corpus::Corpus& corpus,
                           size_t lda_iterations, size_t num_topics,
                           uint64_t version);

/// Lazily-constructed experiment state. Everything is deterministic given
/// the config; LDA models are additionally cached on disk because training
/// dominates setup time.
class ExperimentFixture {
 public:
  explicit ExperimentFixture(FixtureConfig config = FixtureConfig::FromEnv());

  const FixtureConfig& config() const { return config_; }

  /// The synthetic corpus (generated on first use).
  const corpus::Corpus& corpus();
  /// Generative ground truth for the corpus.
  const corpus::GroundTruthModel& ground_truth();
  /// The TREC-substitute workload.
  const std::vector<corpus::BenchmarkQuery>& workload();
  /// Inverted index over the corpus.
  const index::InvertedIndex& index();
  /// Trained LDA model with `num_topics` topics (trains or loads cache).
  const topicmodel::LdaModel& model(size_t num_topics);

  /// A LiveIndex over the fixture corpus with the first
  /// round(upfront_fraction * num_docs) documents already ingested and
  /// published; the caller streams the remainder (the mixed read/write
  /// serving phase). The term space is pre-synced to the corpus
  /// vocabulary, so once everything is ingested the final snapshot's
  /// stats match the static index() bit for bit. The caller owns the
  /// returned index (and any merge pool wired into `options` must outlive
  /// it).
  std::unique_ptr<index::live::LiveIndex> MakeLiveIndex(
      double upfront_fraction,
      index::live::LiveIndexOptions options = index::live::LiveIndexOptions());

  /// The monolithic SearchEngine over the fixture corpus and index(). The
  /// engine borrows fixture state, so the fixture must outlive it.
  std::unique_ptr<search::QueryEngine> MakeEngine(
      std::unique_ptr<search::Scorer> scorer);
  /// Same; `num_shards` and `shard_threads` must be 1 and `strategy` is
  /// ignored. Kept only for perfbench/, which calls it; remove it with that
  /// call.
  std::unique_ptr<search::QueryEngine> MakeEngine(
      std::unique_ptr<search::Scorer> scorer, size_t num_shards,
      size_t shard_threads, std::optional<search::EvalStrategy> strategy);

  /// Human-readable model name, e.g. "LDA200".
  static std::string ModelName(size_t num_topics);

 private:
  void EnsureCorpus();

  FixtureConfig config_;
  std::unique_ptr<corpus::Corpus> corpus_;
  corpus::GroundTruthModel ground_truth_;
  std::unique_ptr<std::vector<corpus::BenchmarkQuery>> workload_;
  std::unique_ptr<index::InvertedIndex> index_;
  std::map<size_t, std::unique_ptr<topicmodel::LdaModel>> models_;
};

}  // namespace toppriv::experiments

#endif  // TOPPRIV_EXPERIMENTS_FIXTURE_H_
