// Cold set-up and the helpers every workload shares.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>

#include "bench.h"
#include "corpus/workload.h"
#include "search/scorer.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {

namespace tp = toppriv;

Sizes Sizes::For(bool tiny) {
  Sizes s;
  if (tiny) {
    s.docs = 300;
    s.tail_vocab = 600;
    s.topics = 20;
    s.lda_iterations = 20;
    s.ref_sessions = 16;
    s.batch_sessions = 16;
  }
  return s;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t idx = static_cast<size_t>(rank + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t HashResults(const std::vector<tp::search::ScoredDoc>& results) {
  uint64_t h = tp::util::kFnv1aOffsetBasis;
  for (const tp::search::ScoredDoc& r : results) {
    uint64_t bits = 0;
    std::memcpy(&bits, &r.score, sizeof(bits));
    h = tp::util::Fnv1aStep(h, r.doc);
    h = tp::util::Fnv1aStep(h, bits);
  }
  return tp::util::Fnv1aStep(h, results.size());
}

std::vector<Span> Tracer::Collect() {
  std::vector<Span> out;
  for (std::vector<Span>* spans : spans_.All()) {
    out.insert(out.end(), spans->begin(), spans->end());
  }
  return out;
}

std::vector<tp::search::ScoredDoc> ObservedEngine::Evaluate(const Query& terms,
                                                            size_t k) const {
  Buffer& buffer = buffers_.Local();
  const int64_t start = NowNs();
  std::vector<tp::search::ScoredDoc> results = inner_->Evaluate(terms, k);
  buffer.calls.push_back(Call{start, NowNs()});
  if (keep_terms_) buffer.terms.push_back(terms);
  return results;
}

std::vector<std::vector<ObservedEngine::Call>> ObservedEngine::TakeCalls() {
  std::vector<std::vector<Call>> out;
  for (Buffer* buffer : buffers_.All()) {
    if (buffer->calls.empty()) continue;
    out.push_back(std::move(buffer->calls));
    buffer->calls.clear();
  }
  return out;
}

tp::serving::DriverOptions MakeDriverOptions(const Args& args,
                                             size_t threads) {
  tp::serving::DriverOptions options;
  options.num_threads = threads;
  options.top_k = kTopK;
  options.seed = args.seed;
  return options;
}

std::unique_ptr<World> BuildWorld(const Args& args, const Sizes& sizes) {
  auto world = std::make_unique<World>();
  world->sizes = sizes;

  // Built field by field, never FromEnv: no TOPPRIV_* variable can change
  // what is measured. The model cache lives in a fresh run-private
  // directory, so the model is trained on every set-up.
  tp::experiments::FixtureConfig config;
  config.corpus_params.num_docs = sizes.docs;
  config.corpus_params.mean_doc_length = sizes.doc_length;
  config.corpus_params.tail_vocab_size = sizes.tail_vocab;
  config.lda_iterations = sizes.lda_iterations;
  config.cache_dir = args.work_dir + "/model";
  config.num_shards = 1;
  config.shard_threads = 1;
  config.eval_strategy = tp::search::EvalStrategy::kTAAT;
  std::filesystem::remove_all(config.cache_dir);
  world->fixture =
      std::make_unique<tp::experiments::ExperimentFixture>(config);
  tp::experiments::ExperimentFixture& fixture = *world->fixture;

  int64_t t = NowNs();
  auto lap = [&t] {
    const int64_t now = NowNs();
    const double s = static_cast<double>(now - t) / 1e9;
    t = now;
    return s;
  };

  const tp::corpus::Corpus& corpus = fixture.corpus();
  // The user query stream: distinct queries only, sized so that a run at
  // up to kQueriesPerSecond protected cycles per second never reaches its
  // end. The untraced engine_replay runs no sessions past the reference
  // ones, so it generates only those. The stream is generated in chunks,
  // which keeps the set-up's transient memory small next to the program's
  // own.
  constexpr double kQueriesPerSecond = 4000.0;
  constexpr size_t kChunk = 8192;
  constexpr size_t kMaxChunks = 64;
  const bool runs_sessions = args.trace || args.workload != "engine_replay";
  const size_t wanted =
      sizes.ref_sessions * sizes.session_queries +
      (runs_sessions ? static_cast<size_t>(kQueriesPerSecond * args.seconds)
                     : 0);
  tp::corpus::WorkloadParams params;
  params.num_queries = kChunk;
  std::set<Query> seen;
  for (uint64_t chunk = 0; world->queries.size() < wanted && chunk < kMaxChunks;
       ++chunk) {
    params.seed = args.seed * kMaxChunks + chunk;
    for (tp::corpus::BenchmarkQuery& q :
         tp::corpus::WorkloadGenerator(corpus, fixture.ground_truth(), params)
             .Generate()) {
      if (world->queries.size() < wanted && seen.insert(q.term_ids).second) {
        world->queries.push_back(std::move(q.term_ids));
      }
    }
  }
  world->corpus_s = lap();

  world->model = &fixture.model(sizes.topics);
  world->inferencer =
      std::make_unique<tp::topicmodel::LdaInferencer>(*world->model);
  world->train_s = lap();

  world->engine = fixture.MakeEngine(tp::search::MakeBm25Scorer(), 1, 1,
                                     tp::search::EvalStrategy::kTAAT);
  world->index_s = lap();

  const size_t ref_queries = sizes.ref_sessions * sizes.session_queries;
  TOPPRIV_CHECK_GE(world->queries.size(), ref_queries);
  world->ref_sessions = tp::serving::DealSessions(
      std::vector<Query>(world->queries.begin(),
                         world->queries.begin() + ref_queries),
      sizes.ref_sessions);
  // One driver thread: set-ups run side by side (see bench_main.cc), and
  // per-session results do not depend on the thread count.
  ObservedEngine recorder(world->engine.get(), /*keep_terms=*/true);
  tp::serving::SessionDriver driver(*world->model, *world->inferencer,
                                    recorder, MakeDriverOptions(args, 1));
  world->ref_report = driver.Run(world->ref_sessions);
  for (ObservedEngine::Buffer* buffer : recorder.buffers()) {
    for (Query& q : buffer->terms) world->engine_stream.push_back(std::move(q));
  }
  // Sorting first makes the stream independent of the recording order.
  std::sort(world->engine_stream.begin(), world->engine_stream.end());
  tp::util::Rng(args.seed).Fork(0x5eed).Shuffle(&world->engine_stream);
  world->record_s = lap();
  std::fprintf(stderr,
               "[perfbench] set-up: corpus+queries %.3fs, train %.3fs, index "
               "%.3fs, reference run %.3fs\n",
               world->corpus_s, world->train_s, world->index_s,
               world->record_s);
  return world;
}

SessionFeed::SessionFeed(const World& world, size_t sessions,
                         size_t queries_each)
    : world_(world),
      sessions_(sessions),
      queries_each_(queries_each),
      next_(world.sizes.ref_sessions * world.sizes.session_queries) {}

std::vector<tp::serving::SessionWorkload> SessionFeed::Next() {
  const size_t first = world_.sizes.ref_sessions * world_.sizes.session_queries;
  std::vector<Query> batch;
  batch.reserve(sessions_ * queries_each_);
  while (batch.size() < sessions_ * queries_each_) {
    if (next_ == world_.queries.size()) {
      next_ = first;
      ++wraps_;
    }
    batch.push_back(world_.queries[next_++]);
  }
  return tp::serving::DealSessions(batch, sessions_);
}

}  // namespace perfbench
