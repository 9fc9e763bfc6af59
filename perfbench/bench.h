// Shared pieces of the TopPriv benchmark driver: command-line arguments,
// the metric report, per-thread buffers, the benchmark's own span recorder,
// and the cold set-up every workload starts from.
//
// The benchmark drives the system only through the public functions of
// experiments, corpus, topicmodel, toppriv, search, index, index/live and
// serving. Spans are recorded here, around calls into those layers; nothing
// inside the program is traced by this code.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "experiments/fixture.h"
#include "search/engine.h"
#include "serving/session_driver.h"
#include "topicmodel/inference.h"
#include "topicmodel/lda_model.h"

namespace perfbench {

using toppriv::text::TermId;
using Query = std::vector<TermId>;

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Poisson arrival rate of the traced open loop, cycles per second
  /// (absolute, set in BENCHMARK.json's command, never derived from a
  /// measured capacity).
  double open_rate = 0.0;
  /// Shrinks the fixture so every workload finishes in seconds (self-test).
  bool tiny = false;
  /// Run-private scratch directory (model cache, WAL); removed at exit.
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string trace_out;
};

/// Sizes of one benchmark configuration.
struct Sizes {
  size_t docs = 1500;
  double doc_length = 100.0;
  size_t tail_vocab = 3000;
  size_t topics = 100;
  size_t lda_iterations = 100;
  /// Reference sessions run at set-up (privacy SLO, recorded engine stream,
  /// the traced replica's comparison target).
  size_t ref_sessions = 256;
  size_t session_queries = 8;
  /// Sessions per SessionDriver::Run call in the closed loops.
  size_t batch_sessions = 128;
  /// Cold set-ups per untraced run, run side by side; setup_s is the
  /// median of their times.
  size_t setup_repeats = 3;

  static Sizes For(bool tiny);
};

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
  /// Samples behind a percentile or mean (0 = not a sampled statistic).
  size_t samples = 0;
};

/// Everything one run reports.
struct Report {
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Correctness failures; any entry fails the run.
  std::vector<std::string> errors;

  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  void Fail(const std::string& what) { errors.push_back(what); }
};

/// Nearest-rank percentile of an unsorted sample (sorts a copy).
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// FNV-1a over a ranked result list: doc ids and score bit patterns.
uint64_t HashResults(const std::vector<toppriv::search::ScoredDoc>& results);

/// One private T per calling thread, created on first use and kept until
/// the owner is destroyed. Lets hot paths append without a shared lock.
template <typename T>
class PerThread {
 public:
  PerThread() : id_(next_id_.fetch_add(1) + 1) {}
  PerThread(const PerThread&) = delete;
  PerThread& operator=(const PerThread&) = delete;

  T& Local() {
    // (owner id, slot) pairs of this thread; ids are never reused, so a
    // stale pair left by a destroyed owner can never match.
    thread_local std::vector<std::pair<uint64_t, T*>> mine;
    for (const auto& [id, slot] : mine) {
      if (id == id_) return *slot;
    }
    std::lock_guard<std::mutex> lock(mu_);
    slots_.push_back(std::make_unique<T>());
    mine.emplace_back(id_, slots_.back().get());
    return *slots_.back();
  }
  /// Every thread's T; call only after the writers have stopped.
  std::vector<T*> All() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<T*> out;
    for (auto& s : slots_) out.push_back(s.get());
    return out;
  }

 private:
  static inline std::atomic<uint64_t> next_id_{0};
  const uint64_t id_;
  std::mutex mu_;
  std::vector<std::unique_ptr<T>> slots_;
};

/// One completed span of the benchmark's own trace. Spans of one protected
/// query share `cycle` (0 = not part of a cycle); `parent` is the span id of
/// the enclosing span (0 = root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t cycle = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store, written out once at the end of the traced run.
class Tracer {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  uint64_t NextCycle() { return next_cycle_.fetch_add(1) + 1; }
  void Record(const Span& span) { spans_.Local().push_back(span); }
  /// All spans recorded so far, in no particular order.
  std::vector<Span> Collect();

 private:
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> next_cycle_{0};
  PerThread<std::vector<Span>> spans_;
};

/// A forwarding QueryEngine that records every Evaluate call (start, end
/// and, optionally, the terms) into per-thread buffers. It lets
/// the benchmark observe what SessionDriver sends to the engine without
/// touching the driver.
class ObservedEngine : public toppriv::search::QueryEngine {
 public:
  struct Call {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  struct Buffer {
    std::vector<Call> calls;
    std::vector<Query> terms;  // filled only when keep_terms
  };

  ObservedEngine(toppriv::search::QueryEngine* inner, bool keep_terms)
      : inner_(inner), keep_terms_(keep_terms) {}

  std::vector<toppriv::search::ScoredDoc> Search(const Query& terms, size_t k,
                                                 uint64_t cycle_id) override {
    return inner_->Search(terms, k, cycle_id);
  }
  std::vector<toppriv::search::ScoredDoc> Evaluate(const Query& terms,
                                                   size_t k) const override;
  toppriv::util::StatusOr<std::vector<toppriv::search::ScoredDoc>>
  EvaluateWithOptions(const Query& terms, size_t k,
                      const toppriv::search::QueryOptions& options)
      const override {
    return inner_->EvaluateWithOptions(terms, k, options);
  }
  const toppriv::search::QueryLog& query_log() const override {
    return inner_->query_log();
  }
  toppriv::search::QueryLog& mutable_query_log() override {
    return inner_->mutable_query_log();
  }
  const toppriv::corpus::Corpus& corpus() const override {
    return inner_->corpus();
  }
  const toppriv::search::Scorer& scorer() const override {
    return inner_->scorer();
  }
  toppriv::search::EvalStrategy eval_strategy() const override {
    return inner_->eval_strategy();
  }

  /// Per-thread call buffers; read only after the callers have stopped.
  std::vector<Buffer*> buffers() const { return buffers_.All(); }
  /// Moves out every thread's recorded calls (threads without calls are
  /// left out) and clears them; call only while no Evaluate runs.
  std::vector<std::vector<Call>> TakeCalls();

 private:
  toppriv::search::QueryEngine* inner_;
  const bool keep_terms_;
  mutable PerThread<Buffer> buffers_;
};

/// Cold set-up shared by every workload: corpus, LDA model (trained, never
/// loaded from a cache), index and engine, the user query stream, and one
/// untraced SessionDriver::Run over the reference sessions that records the
/// engine-side stream and the privacy SLO.
struct World {
  Sizes sizes;
  std::unique_ptr<toppriv::experiments::ExperimentFixture> fixture;
  const toppriv::topicmodel::LdaModel* model = nullptr;
  std::unique_ptr<toppriv::topicmodel::LdaInferencer> inferencer;
  std::unique_ptr<toppriv::search::QueryEngine> engine;
  /// Distinct user queries; the first ref_sessions * session_queries form
  /// the reference sessions, the rest feed the measured sessions.
  std::vector<Query> queries;
  std::vector<toppriv::serving::SessionWorkload> ref_sessions;
  toppriv::serving::ServingReport ref_report;
  /// Every query the reference run sent to the engine (genuine and ghost),
  /// sorted, then shuffled with the seed.
  std::vector<Query> engine_stream;

  double corpus_s = 0.0;
  double train_s = 0.0;
  double index_s = 0.0;
  double record_s = 0.0;
};

std::unique_ptr<World> BuildWorld(const Args& args, const Sizes& sizes);

/// Driver options every workload shares (top-k, default privacy spec).
toppriv::serving::DriverOptions MakeDriverOptions(const Args& args,
                                                  size_t threads);

/// Hands out consecutive measured-session batches from the query stream,
/// wrapping around (and counting the wrap) if a run outlasts it.
class SessionFeed {
 public:
  SessionFeed(const World& world, size_t sessions, size_t queries_each);
  std::vector<toppriv::serving::SessionWorkload> Next();
  size_t wraps() const { return wraps_; }

 private:
  const World& world_;
  const size_t sessions_;
  const size_t queries_each_;
  size_t next_ = 0;
  size_t wraps_ = 0;
};

// Workloads. Each fills `report` with its metrics and attempt counts.
void RunProtectClosed(const Args& args, World& world, Report* report);
/// Sequential per-query result digests of world.engine_stream.
std::vector<uint64_t> SequentialDigests(const World& world);
void RunEngineReplay(const Args& args, World& world,
                     const std::vector<uint64_t>& expected, Report* report);

/// The traced run: per-layer metrics from replicas of the closed and open
/// loops and from the live path, with the benchmark's own spans.
void RunTraced(const Args& args, World& world, Tracer* tracer, Report* report);

/// Top-k every workload requests per query.
inline constexpr size_t kTopK = 10;

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
