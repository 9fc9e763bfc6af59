// The traced run. A closed loop, an open loop and a live read/write path
// call the layers' public functions directly (SessionProtector::Protect,
// QueryEngine Evaluate, AdmissionController, LiveIndex writes) so that the
// benchmark can put its own span around each call. Per-layer metrics come
// from these spans; end-to-end metrics never do.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>

#include "bench.h"
#include "corpus/corpus.h"
#include "index/inverted_index.h"
#include "index/live/live_index.h"
#include "search/live_engine.h"
#include "search/scorer.h"
#include "serving/admission.h"
#include "toppriv/ghost_generator.h"
#include "toppriv/session.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/filesystem.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace tp = toppriv;

namespace {

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }
double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Sec(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// The open-loop replica: sessions it deals arrivals over, pool workers
// (plus the arrival thread), admission and deadline.
constexpr size_t kOpenSessions = 64;
constexpr size_t kOpenWorkers = 3;

tp::serving::OpenLoopOptions MakeOpenLoopOptions(const Args& args,
                                                 size_t arrivals) {
  tp::serving::OpenLoopOptions open;
  open.arrival_qps = args.open_rate;
  open.num_arrivals = arrivals;
  // Far above a nominal cycle (~2 ms): trips only on real stalls.
  open.deadline_seconds = 0.1;
  open.admission.max_in_flight = kOpenWorkers;
  open.admission.max_queue_depth = 29;
  open.admission.degraded_watermark = 0.75;
  return open;
}

/// What the closed-loop replica observed on one thread.
struct ClosedObs {
  std::vector<double> protect_us;
  std::vector<double> eval_us;
  int64_t cycle_ns = 0;
  int64_t unattributed_ns = 0;
  size_t cycles = 0;
  size_t ghosts = 0;
  size_t rejected = 0;
  /// Every query the cycles carried (user query and accepted ghosts): each
  /// was inferred once inside Protect and evaluated once.
  std::vector<Query> queries;
};

/// The per-session outcome the replica must share with SessionDriver.
struct SessionResult {
  size_t cycles = 0;
  size_t queries = 0;
  size_t ghosts = 0;
  size_t met_epsilon2 = 0;
  double exposure_after_sum = 0.0;
};

tp::core::SessionOptions SharedCdfOptions(
    const tp::core::TopicCdfTable& cdfs) {
  tp::core::SessionOptions options;
  options.generator.shared_topic_cdfs = &cdfs;
  return options;
}

/// SessionDriver::RunSession, re-done in the benchmark with a span around
/// each Protect and each Evaluate, all under one cycle span per query.
SessionResult ReplicaSession(const Args& args, const World& world,
                             const tp::core::TopicCdfTable& cdfs,
                             uint64_t session_id,
                             const tp::serving::SessionWorkload& workload,
                             Tracer* tracer, ClosedObs* obs) {
  tp::util::Rng rng = tp::util::Rng(args.seed).Fork(session_id);
  tp::core::SessionProtector protector(*world.model, *world.inferencer,
                                       tp::core::PrivacySpec(),
                                       SharedCdfOptions(cdfs));
  SessionResult result;
  std::vector<std::pair<int64_t, int64_t>> evals;
  for (const Query& query : workload.queries) {
    const int64_t c0 = NowNs();
    tp::core::QueryCycle cycle = protector.Protect(query, &rng);
    const int64_t p1 = NowNs();
    evals.clear();
    for (const Query& q : cycle.queries) {
      const int64_t e0 = NowNs();
      world.engine->Evaluate(q, kTopK);
      evals.emplace_back(e0, NowNs());
    }
    const int64_t c1 = NowNs();

    const uint64_t cycle_id = tracer->NextCycle();
    const uint64_t root = tracer->NextId();
    tracer->Record(Span{root, 0, cycle_id, "serving.cycle", c0, c1});
    tracer->Record(Span{tracer->NextId(), root, cycle_id, "toppriv.protect",
                        c0, p1});
    int64_t eval_ns = 0;
    for (const auto& [e0, e1] : evals) {
      tracer->Record(
          Span{tracer->NextId(), root, cycle_id, "search.eval", e0, e1});
      obs->eval_us.push_back(Us(e1 - e0));
      eval_ns += e1 - e0;
    }
    obs->protect_us.push_back(Us(p1 - c0));
    obs->cycle_ns += c1 - c0;
    obs->unattributed_ns += (c1 - c0) - (p1 - c0) - eval_ns;
    ++obs->cycles;
    obs->ghosts += cycle.num_ghosts();
    obs->rejected += cycle.rejected_topics.size();
    for (Query& q : cycle.queries) obs->queries.push_back(std::move(q));

    ++result.cycles;
    result.queries += evals.size();
    result.ghosts += cycle.num_ghosts();
    if (cycle.met_epsilon2) ++result.met_epsilon2;
    result.exposure_after_sum += cycle.exposure_after;
  }
  return result;
}

bool SameStats(const SessionResult& a, const tp::serving::SessionStats& b) {
  return a.cycles == b.cycles && a.queries == b.queries_submitted &&
         a.ghosts == b.ghosts && a.met_epsilon2 == b.met_epsilon2 &&
         std::memcmp(&a.exposure_after_sum, &b.exposure_after_sum,
                     sizeof(double)) == 0;
}

uint64_t InferenceCount() {
  return tp::util::MetricsRegistry::Default()
      .GetCounter("lda.inferences")
      ->Sum();
}

// Closed loop: alternate untraced SessionDriver::Run and the traced replica
// over the same session batches, starting with the reference sessions.
void TraceClosed(const Args& args, World& world, double seconds,
                 Tracer* tracer, Report* report) {
  tp::serving::SessionDriver driver(*world.model, *world.inferencer,
                                    *world.engine, MakeDriverOptions(args, 4));
  const tp::core::TopicCdfTable cdfs(*world.model);
  tp::util::ThreadPool pool(4);
  PerThread<ClosedObs> per_thread;
  SessionFeed feed(world, world.sizes.batch_sessions,
                   world.sizes.session_queries);
  int64_t untraced_ns = 0;
  int64_t traced_ns = 0;
  size_t untraced_cycles = 0;
  size_t traced_cycles = 0;
  uint64_t infer_calls = 0;
  size_t mismatched = 0;
  bool first = true;
  const int64_t stop = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    const std::vector<tp::serving::SessionWorkload> sessions =
        first ? world.ref_sessions : feed.Next();
    first = false;
    int64_t t0 = NowNs();
    const tp::serving::ServingReport reference = driver.Run(sessions);
    untraced_ns += NowNs() - t0;
    untraced_cycles += reference.total_cycles;

    std::vector<SessionResult> results(sessions.size());
    const uint64_t inferences_before = InferenceCount();
    t0 = NowNs();
    pool.ParallelFor(sessions.size(), [&](size_t s) {
      results[s] = ReplicaSession(args, world, cdfs, s, sessions[s], tracer,
                                  &per_thread.Local());
    });
    traced_ns += NowNs() - t0;
    infer_calls += InferenceCount() - inferences_before;
    for (size_t s = 0; s < sessions.size(); ++s) {
      traced_cycles += results[s].cycles;
      if (!SameStats(results[s], reference.sessions[s])) ++mismatched;
    }
  } while (NowNs() < stop);
  report->attempted += traced_cycles;
  if (mismatched > 0) {
    report->Fail(std::to_string(mismatched) +
                 " traced replica sessions differ from SessionDriver's");
  }

  ClosedObs all;
  for (ClosedObs* o : per_thread.All()) {
    all.protect_us.insert(all.protect_us.end(), o->protect_us.begin(),
                          o->protect_us.end());
    all.eval_us.insert(all.eval_us.end(), o->eval_us.begin(),
                       o->eval_us.end());
    all.cycle_ns += o->cycle_ns;
    all.unattributed_ns += o->unattributed_ns;
    all.cycles += o->cycles;
    all.ghosts += o->ghosts;
    all.rejected += o->rejected;
    for (Query& q : o->queries) all.queries.push_back(std::move(q));
  }
  const double cycles = static_cast<double>(all.cycles);

  // Inference cost per call, timed on its own over the inputs the cycles
  // carried; the repeat share counts inputs seen earlier in this run.
  std::set<Query> distinct_terms;
  for (const Query& q : all.queries) distinct_terms.insert(q);
  const size_t probe = std::min<size_t>(all.queries.size(), 3000);
  int64_t infer_ns = 0;
  for (size_t i = 0; i < probe; ++i) {
    const Query& q = all.queries[i * all.queries.size() / probe];
    const int64_t t = NowNs();
    world.inferencer->InferQuery(q);
    infer_ns += NowNs() - t;
  }
  const double infer_us = Us(infer_ns) / static_cast<double>(probe);
  // The program counts its own inferences (lda.inferences); an
  // instrumentation-off build counts none, so fall back to the cycle
  // diagnostics (an upper bound: a rejected empty ghost is not inferred).
  const double calls_per_cycle =
      infer_calls > 0 ? static_cast<double>(infer_calls) / cycles
                      : (cycles + static_cast<double>(all.ghosts + all.rejected)) /
                            cycles;

  const tp::corpus::Corpus& corpus = world.fixture->corpus();
  double postings = 0.0;
  for (const Query& q : all.queries) {
    for (TermId t : std::set<TermId>(q.begin(), q.end())) {
      postings += corpus.vocabulary().DocFreq(t);
    }
  }

  const double untraced_cps = untraced_cycles / Sec(untraced_ns);
  const double traced_cps = traced_cycles / Sec(traced_ns);
  report->Set("trace.untraced_cycles_per_s", untraced_cps, "1/s",
              untraced_cycles);
  report->Set("trace.traced_cycles_per_s", traced_cps, "1/s", traced_cycles);
  report->Set("trace.overhead_frac", 1.0 - traced_cps / untraced_cps, "frac",
              traced_cycles);
  report->Set("trace.unattributed_frac",
              static_cast<double>(all.unattributed_ns) /
                  static_cast<double>(all.cycle_ns),
              "frac", all.cycles);
  report->Set("toppriv.protect_us_p50", Percentile(all.protect_us, 0.5), "us",
              all.protect_us.size());
  report->Set("toppriv.protect_us_p99", Percentile(all.protect_us, 0.99),
              "us", all.protect_us.size());
  report->Set("toppriv.protect_self_us",
              Mean(all.protect_us) - calls_per_cycle * infer_us, "us",
              all.protect_us.size());
  report->Set("toppriv.ghosts_per_cycle", all.ghosts / cycles, "count",
              all.cycles);
  report->Set("toppriv.rejected_per_cycle", all.rejected / cycles, "count",
              all.cycles);
  report->Set("topicmodel.infer_calls_per_cycle", calls_per_cycle, "count",
              all.cycles);
  report->Set("topicmodel.infer_us_per_call", infer_us, "us", probe);
  report->Set("topicmodel.infer_repeat_frac",
              1.0 - static_cast<double>(distinct_terms.size()) /
                        static_cast<double>(all.queries.size()),
              "frac", all.queries.size());
  report->Set("topicmodel.infer_repeat_base",
              static_cast<double>(all.queries.size()), "count");
  report->Set("search.eval_us_p50", Percentile(all.eval_us, 0.5), "us",
              all.eval_us.size());
  report->Set("search.eval_us_p99", Percentile(all.eval_us, 0.99), "us",
              all.eval_us.size());
  report->Set("search.evals_per_cycle", all.eval_us.size() / cycles, "count",
              all.cycles);
  report->Set("search.postings_per_query",
              postings / static_cast<double>(all.queries.size()), "count",
              all.queries.size());
}

// Open loop: RunOpenLoop re-done with spans for the arrival lag, the wait
// in the pool queue, Protect and each Evaluate.
void TraceOpen(const Args& args, World& world, double seconds, Tracer* tracer,
               Report* report) {
  const size_t arrivals =
      std::max<size_t>(1, static_cast<size_t>(args.open_rate * seconds + 0.5));
  const tp::serving::OpenLoopOptions open = MakeOpenLoopOptions(args, arrivals);
  const std::vector<tp::serving::SessionWorkload> sessions =
      SessionFeed(world, kOpenSessions,
                  (arrivals + kOpenSessions - 1) / kOpenSessions)
          .Next();
  const tp::core::TopicCdfTable cdfs(*world.model);

  struct Ctx {
    std::mutex mu;
    std::unique_ptr<tp::core::SessionProtector> protector;
    tp::util::Rng rng{0};
    size_t next_query = 0;
  };
  std::vector<std::unique_ptr<Ctx>> ctxs;
  for (size_t s = 0; s < sessions.size(); ++s) {
    auto ctx = std::make_unique<Ctx>();
    ctx->protector = std::make_unique<tp::core::SessionProtector>(
        *world.model, *world.inferencer, tp::core::PrivacySpec(),
        SharedCdfOptions(cdfs));
    ctx->rng = tp::util::Rng(args.seed).Fork(s);
    ctxs.push_back(std::move(ctx));
  }

  tp::util::Rng arrival_rng = tp::util::Rng(args.seed).Fork(0xa441);
  std::vector<int64_t> offsets(arrivals);
  double t = 0.0;
  for (size_t i = 0; i < arrivals; ++i) {
    t += -std::log1p(-arrival_rng.Uniform()) / open.arrival_qps;
    offsets[i] = static_cast<int64_t>(t * 1e9);
  }

  tp::serving::AdmissionController admission(open.admission);
  std::mutex stats_mu;
  std::vector<double> queue_wait_ms;
  std::vector<double> lag_ms;
  size_t deadline_exceeded = 0;
  {
    tp::util::ThreadPool pool(kOpenWorkers);
    const int64_t base = NowNs();
    for (size_t i = 0; i < arrivals; ++i) {
      const int64_t due = base + offsets[i];
      const int64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      const int64_t dispatched = NowNs();
      lag_ms.push_back(Ms(dispatched - due));
      if (!admission.TryAdmit().ok()) continue;
      Ctx* ctx = ctxs[i % ctxs.size()].get();
      const tp::serving::SessionWorkload* workload = &sessions[i % ctxs.size()];
      pool.Submit([&, ctx, workload, due, dispatched] {
        const int64_t started = NowNs();
        const bool degraded = admission.degraded();
        std::vector<std::pair<int64_t, int64_t>> evals;
        int64_t p0 = 0;
        int64_t p1 = 0;
        bool expired = false;
        {
          std::lock_guard<std::mutex> lock(ctx->mu);
          const Query& query =
              workload->queries[ctx->next_query++ % workload->queries.size()];
          p0 = NowNs();
          const tp::core::QueryCycle cycle =
              degraded ? ctx->protector->ProtectShedRefresh(query, &ctx->rng)
                       : ctx->protector->Protect(query, &ctx->rng);
          p1 = NowNs();
          const tp::util::Deadline deadline =
              tp::util::Deadline::After(open.deadline_seconds);
          tp::search::QueryOptions options;
          options.deadline = &deadline;
          for (const Query& q : cycle.queries) {
            const int64_t e0 = NowNs();
            const auto result =
                world.engine->EvaluateWithOptions(q, kTopK, options);
            evals.emplace_back(e0, NowNs());
            if (!result.ok()) {
              expired = result.status().code() ==
                        tp::util::StatusCode::kDeadlineExceeded;
              break;
            }
          }
        }
        const int64_t done = NowNs();
        const uint64_t cycle_id = tracer->NextCycle();
        const uint64_t root = tracer->NextId();
        tracer->Record(Span{root, 0, cycle_id, "serving.cycle", due, done});
        tracer->Record(Span{tracer->NextId(), root, cycle_id,
                            "serving.arrival_lag", due, dispatched});
        tracer->Record(Span{tracer->NextId(), root, cycle_id,
                            "serving.queue_wait", dispatched, started});
        tracer->Record(Span{tracer->NextId(), root, cycle_id,
                            "toppriv.protect", p0, p1});
        for (const auto& [e0, e1] : evals) {
          tracer->Record(
              Span{tracer->NextId(), root, cycle_id, "search.eval", e0, e1});
        }
        {
          std::lock_guard<std::mutex> lock(stats_mu);
          queue_wait_ms.push_back(Ms(started - dispatched));
          if (expired) ++deadline_exceeded;
        }
        admission.Finish();
      });
    }
    pool.Wait();
  }

  report->attempted += arrivals;
  report->failed += admission.shed() + deadline_exceeded;
  report->Set("serving.queue_wait_ms_p50", Percentile(queue_wait_ms, 0.5),
              "ms", queue_wait_ms.size());
  report->Set("serving.queue_wait_ms_p99", Percentile(queue_wait_ms, 0.99),
              "ms", queue_wait_ms.size());
  report->Set("serving.shed", static_cast<double>(admission.shed()), "count",
              arrivals);
  report->Set("serving.degraded_frac",
              static_cast<double>(admission.degraded_admissions()) /
                  static_cast<double>(std::max<uint64_t>(1, admission.admitted())),
              "frac", admission.admitted());
  report->Set("serving.peak_queue_depth",
              static_cast<double>(admission.peak_queue_depth()), "count");
  report->Set("serving.deadline_exceeded",
              static_cast<double>(deadline_exceeded), "count",
              admission.admitted());
  report->Set("serving.arrival_lag_ms_p99", Percentile(lag_ms, 0.99), "ms",
              lag_ms.size());
}

/// The live path's index: opened with LiveIndex::Recover on a run-private
/// directory (every write call fsyncs), merges on one worker, the whole
/// corpus ingested up front. `slots[d]` is the stable id corpus document d lives
/// under now; updates delete it and ingest it again under a new id.
struct LiveSetup {
  std::unique_ptr<tp::util::ThreadPool> merge_pool;
  std::unique_ptr<tp::index::live::LiveIndex> live;
  std::unique_ptr<tp::search::LiveSearchEngine> engine;
  std::vector<tp::index::live::StableId> slots;
  std::string dir;
};

std::unique_ptr<LiveSetup> BuildLive(const Args& args, World& world) {
  auto setup = std::make_unique<LiveSetup>();
  setup->dir = args.work_dir + "/live";
  std::filesystem::remove_all(setup->dir);
  setup->merge_pool = std::make_unique<tp::util::ThreadPool>(1);
  tp::index::live::LiveIndexOptions options;
  options.merge_pool = setup->merge_pool.get();
  options.durability = tp::index::live::DurabilityPolicy::kPerBatch;
  auto recovered = tp::index::live::LiveIndex::Recover(
      tp::util::GetRealFileSystem(), setup->dir, options);
  TOPPRIV_CHECK(recovered.ok());
  setup->live = std::move(recovered).value();

  const tp::corpus::Corpus& corpus = world.fixture->corpus();
  setup->live->EnsureTermSpace(corpus.vocabulary_size());
  constexpr size_t kLoadBatch = 128;
  for (size_t d = 0; d < corpus.num_documents(); d += kLoadBatch) {
    std::vector<Query> docs;
    for (size_t i = d; i < std::min(corpus.num_documents(), d + kLoadBatch);
         ++i) {
      docs.push_back(corpus.documents()[i].tokens);
    }
    auto ids = setup->live->IngestChecked(docs);
    TOPPRIV_CHECK(ids.ok());
    setup->slots.insert(setup->slots.end(), ids->begin(), ids->end());
  }
  setup->live->Refresh();
  setup->engine = std::make_unique<tp::search::LiveSearchEngine>(
      corpus, *setup->live, tp::search::MakeBm25Scorer());
  return setup;
}

// Documents one update batch deletes and re-ingests, and the fixed rate
// of those batches.
constexpr size_t kUpdateDocs = 2;
constexpr double kUpdateBatchesPerSecond = 100.0;

// The live path: protected sessions (2 driver threads) over a
// LiveSearchEngine beside a fixed-rate writer, with a span around every
// write call, Refresh and engine call.
void TraceLive(const Args& args, World& world, LiveSetup& setup,
               double seconds, Tracer* tracer, Report* report) {
  tp::index::live::LiveIndex& live = *setup.live;
  const tp::corpus::Corpus& corpus = world.fixture->corpus();

  // Writer: fixed-rate update batches (delete + re-ingest) beside the reads.
  std::atomic<bool> stop_writer{false};
  std::vector<double> ingest_us;
  std::vector<double> refresh_us;
  std::vector<double> segments;
  size_t write_ops = 0;
  size_t write_failed = 0;
  size_t docs_ingested = corpus.num_documents();
  auto record = [tracer](const char* name, int64_t start, int64_t end) {
    tracer->Record(Span{tracer->NextId(), 0, 0, name, start, end});
  };
  std::thread writer([&] {
    tp::util::Rng rng = tp::util::Rng(args.seed).Fork(0x11fe);
    const int64_t period = static_cast<int64_t>(1e9 / kUpdateBatchesPerSecond);
    int64_t due = NowNs();
    while (!stop_writer.load()) {
      const int64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        continue;
      }
      due += period;
      std::vector<size_t> picked;
      while (picked.size() < kUpdateDocs) {
        const size_t d = rng.UniformInt(corpus.num_documents());
        if (std::find(picked.begin(), picked.end(), d) == picked.end()) {
          picked.push_back(d);
        }
      }
      std::vector<Query> docs;
      for (size_t d : picked) {
        const int64_t t0 = NowNs();
        const tp::util::Status deleted = live.DeleteChecked(setup.slots[d]);
        record("index.live.delete", t0, NowNs());
        ++write_ops;
        if (!deleted.ok()) ++write_failed;
        docs.push_back(corpus.documents()[d].tokens);
      }
      const int64_t t0 = NowNs();
      auto ids = live.IngestChecked(docs);
      const int64_t t1 = NowNs();
      record("index.live.ingest", t0, t1);
      ++write_ops;
      ingest_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (ids.ok()) {
        for (size_t j = 0; j < picked.size(); ++j) setup.slots[picked[j]] = (*ids)[j];
        docs_ingested += picked.size();
      } else {
        ++write_failed;
      }
      const int64_t t2 = NowNs();
      live.Refresh();
      const int64_t t3 = NowNs();
      record("index.live.refresh", t2, t3);
      refresh_us.push_back(static_cast<double>(t3 - t2) / 1e3);
      segments.push_back(static_cast<double>(live.num_segments()));
    }
  });

  // Readers: protected sessions over the live engine.
  ObservedEngine observed(setup.engine.get(), /*keep_terms=*/false);
  tp::serving::SessionDriver driver(*world.model, *world.inferencer, observed,
                                    MakeDriverOptions(args, 2));
  SessionFeed feed(world, world.sizes.batch_sessions / 2,
                   world.sizes.session_queries);
  size_t cycles = 0;
  const int64_t stop = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    cycles += driver.Run(feed.Next()).total_cycles;
    for (const std::vector<ObservedEngine::Call>& thread :
         observed.TakeCalls()) {
      for (const ObservedEngine::Call& c : thread) {
        record("search.eval", c.start_ns, c.end_ns);
      }
    }
  } while (NowNs() < stop);
  stop_writer.store(true);
  writer.join();
  
  const int64_t m0 = NowNs();
  live.WaitForMerges();
  const double merge_wait_s = Sec(NowNs() - m0);
  live.Refresh();

  // Convergence: the live engine must answer exactly like a static engine
  // built over the final live documents (in stable-id order).
  std::vector<std::pair<tp::index::live::StableId, size_t>> order;
  for (size_t d = 0; d < setup.slots.size(); ++d) order.emplace_back(setup.slots[d], d);
  std::sort(order.begin(), order.end());
  tp::corpus::Corpus final_corpus;
  for (size_t t = 0; t < corpus.vocabulary_size(); ++t) {
    final_corpus.mutable_vocabulary().AddTerm(
        corpus.vocabulary().TermString(static_cast<TermId>(t)));
  }
  for (const auto& [stable, d] : order) {
    final_corpus.AddDocument("", corpus.documents()[d].tokens);
  }
  const tp::index::InvertedIndex final_index =
      tp::index::InvertedIndex::Build(final_corpus);
  tp::search::SearchEngine static_engine(final_corpus, final_index,
                                         tp::search::MakeBm25Scorer());
  const std::vector<Query>& probe = world.engine_stream;
  const size_t probes = std::min<size_t>(probe.size(), 300);
  size_t diverged = 0;
  for (size_t i = 0; i < probes; ++i) {
    const Query& q = probe[i * probe.size() / probes];
    if (HashResults(setup.engine->Evaluate(q, kTopK)) !=
        HashResults(static_engine.Evaluate(q, kTopK))) {
      ++diverged;
    }
  }
  if (diverged > 0) {
    report->Fail("live path: " + std::to_string(diverged) + " of " +
                 std::to_string(probes) +
                 " queries differ from a static engine over the final documents");
  }
  if (write_failed > 0) {
    report->Fail("live path: " + std::to_string(write_failed) +
                 " write operations failed");
  }

  report->attempted += cycles + write_ops;
  report->failed += write_failed;
  uint64_t wal_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(setup.dir)) {
    if (entry.is_regular_file()) wal_bytes += entry.file_size();
  }
  report->Set("index.live.ingest_us_p50", Percentile(ingest_us, 0.5), "us",
              ingest_us.size());
  report->Set("index.live.ingest_us_p99", Percentile(ingest_us, 0.99), "us",
              ingest_us.size());
  report->Set("index.live.refresh_us_p50", Percentile(refresh_us, 0.5), "us",
              refresh_us.size());
  report->Set("index.live.refresh_us_p99", Percentile(refresh_us, 0.99), "us",
              refresh_us.size());
  report->Set("index.live.segments_mean", Mean(segments), "count",
              segments.size());
  report->Set("index.live.segments_max",
              segments.empty() ? 0.0
                               : *std::max_element(segments.begin(),
                                                   segments.end()),
              "count", segments.size());
  report->Set("index.live.wal_bytes_per_doc",
              static_cast<double>(wal_bytes) /
                  static_cast<double>(docs_ingested),
              "B", docs_ingested);
  report->Set("index.live.merge_wait_s", merge_wait_s, "s");
  report->Set("index.live.write_failed", static_cast<double>(write_failed),
              "count", write_ops);
}

}  // namespace

void RunTraced(const Args& args, World& world, Tracer* tracer,
               Report* report) {
  const double phase = args.seconds / 3.0;
  TraceClosed(args, world, phase, tracer, report);
  TraceOpen(args, world, phase, tracer, report);
  std::unique_ptr<LiveSetup> live = BuildLive(args, world);
  TraceLive(args, world, *live, phase, tracer, report);

  report->Set("corpus.generate_s", world.corpus_s, "s");
  report->Set("corpus.stream_record_s", world.record_s, "s");
  report->Set("topicmodel.train_s", world.train_s, "s");
  report->Set("index.build_s", world.index_s, "s");
  report->Set("index.bytes",
              static_cast<double>(
                  world.fixture->index().ComputeStats().encoded_bytes),
              "B");
}

}  // namespace perfbench
