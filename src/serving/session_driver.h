// Multi-session serving layer (the ROADMAP's "heavy traffic" direction).
//
// A SessionDriver runs N independent user sessions against one shared,
// read-only (model, inferencer, engine) triple. Each session owns its
// mutable state — a SessionProtector (cover story + memoized ghosts), an
// RNG stream forked from the driver seed by session id, and its output
// slot — so sessions parallelize with no locks on the hot path and the
// per-session results are bit-identical regardless of the thread count or
// of which worker happens to run which session.
//
// Thread-safety contract with the layers below:
//  - topicmodel::LdaInferencer::InferQuery is const over an immutable model
//    and keeps its Gibbs scratch in an explicit/thread-local workspace;
//  - the word-sampling CDFs live in one core::TopicCdfTable owned by the
//    driver — immutable after construction, lent read-only to every
//    session's generator (it must outlive them all; no lazy mutation);
//  - search::QueryEngine::Evaluate is const and accumulates into per-thread
//    scratch space, never into engine state (both the monolithic and the
//    live engine honor this).
#ifndef TOPPRIV_SERVING_SESSION_DRIVER_H_
#define TOPPRIV_SERVING_SESSION_DRIVER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "search/engine.h"
#include "serving/admission.h"
#include "topicmodel/inference.h"
#include "topicmodel/lda_model.h"
#include "toppriv/privacy_spec.h"
#include "toppriv/session.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace toppriv::serving {

/// The genuine queries one user issues, in order.
struct SessionWorkload {
  std::vector<std::vector<text::TermId>> queries;
};

/// Driver configuration.
struct DriverOptions {
  /// Worker threads; 0 means util::ThreadPool::HardwareConcurrency().
  size_t num_threads = 1;
  /// Results requested per submitted query (genuine and ghost alike — a
  /// client that asked for fewer ghost results would mark them).
  size_t top_k = 10;
  /// Driver seed; session s draws from Fork(s) of it.
  uint64_t seed = 1;
  core::PrivacySpec spec;
  /// Per-session policy (cover-story size, generator ablations).
  core::SessionOptions session;
};

/// Per-session outcome. Every field except `generation_seconds` (wall
/// clock) is a pure function of (driver seed, session id, session
/// workload) — the determinism tests compare them across thread counts.
struct SessionStats {
  size_t cycles = 0;
  /// Queries actually submitted to the engine (genuine + ghosts).
  size_t queries_submitted = 0;
  size_t ghosts = 0;
  size_t met_epsilon2 = 0;
  double exposure_after_sum = 0.0;
  /// Client-side cycle generation time, summed (wall clock; excluded from
  /// `digest`).
  double generation_seconds = 0.0;
  /// Order-sensitive FNV-1a over every cycle (queries, user index) and
  /// every ranked result list (doc ids and score bit patterns).
  uint64_t digest = 0;
};

/// Aggregate over one Run call.
struct ServingReport {
  /// Indexed like the input workload vector.
  std::vector<SessionStats> sessions;
  size_t total_cycles = 0;
  size_t total_queries = 0;
  double wall_seconds = 0.0;
  double cycles_per_second = 0.0;
  double queries_per_second = 0.0;
};

/// Open-loop (arrival-driven) load configuration. Unlike Run — which is
/// closed-loop (each session issues its next query the instant the previous
/// one returns, so offered load self-throttles to capacity) — RunOpenLoop
/// offers cycles on a deterministic Poisson schedule that does NOT slow
/// down when the engine does. Under overload the backlog grows and the
/// admission controller sheds, which is exactly the regime the latency
/// percentiles and shed rate are meant to expose.
struct OpenLoopOptions {
  /// Mean cycle arrivals per second (> 0).
  double arrival_qps = 100.0;
  /// Total cycle arrivals to offer.
  size_t num_arrivals = 200;
  /// Per-cycle engine deadline in seconds; 0 disables deadlines.
  double deadline_seconds = 0.0;
  /// Load-shedding and degraded-mode thresholds.
  AdmissionOptions admission;
};

/// Outcome of one RunOpenLoop call. Wall-clock driven (no determinism
/// digest): the arrival SCHEDULE is a pure function of the driver seed,
/// but latencies and shed decisions depend on real time by design.
struct OpenLoopReport {
  size_t arrivals = 0;
  size_t admitted = 0;
  /// Rejected with kResourceExhausted at the admission gate.
  size_t shed = 0;
  /// Admitted above the degraded watermark (served via ProtectShedRefresh:
  /// ghost cache refresh shed, ghost emission intact).
  size_t degraded_admissions = 0;
  /// Admitted cycles whose every engine evaluation returned Ok.
  size_t completed = 0;
  /// Engine evaluations rejected with kDeadlineExceeded.
  size_t deadline_exceeded = 0;
  double wall_seconds = 0.0;
  double cycles_per_second = 0.0;
  /// shed / arrivals.
  double shed_rate = 0.0;
  /// Admitted-cycle latency (scheduled arrival -> completion, so queueing
  /// delay counts), nearest-rank percentiles in seconds.
  double p50_latency_seconds = 0.0;
  double p95_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
  /// High-water marks from the run's admission controller: most cycles ever
  /// simultaneously in the system, and most ever waiting beyond the
  /// in-flight cap.
  size_t peak_in_system = 0;
  size_t peak_queue_depth = 0;
};

/// Runs independent TopPriv sessions concurrently over a shared engine —
/// monolithic or live (the parity suite makes the two
/// indistinguishable).
class SessionDriver {
 public:
  /// Borrows everything; all referents must outlive the driver.
  SessionDriver(const topicmodel::LdaModel& model,
                const topicmodel::LdaInferencer& inferencer,
                const search::QueryEngine& engine, DriverOptions options);

  // Self-referential (options_ points at topic_cdfs_): not copyable/movable.
  SessionDriver(const SessionDriver&) = delete;
  SessionDriver& operator=(const SessionDriver&) = delete;

  /// Protects and executes every session's queries. Safe to call
  /// repeatedly — the worker pool (and with it each worker's thread-local
  /// evaluation/inference scratch) lives for the driver's lifetime, so
  /// repeated calls do not re-pay thread spawn or scratch growth.
  /// One Run at a time per driver: concurrent callers serialize on
  /// run_mu_ (PR 7 — this used to be a prose-only "not reentrant" rule; a
  /// second caller now waits instead of corrupting the first one's fleet).
  ServingReport Run(const std::vector<SessionWorkload>& sessions)
      EXCLUDES(run_mu_);

  /// Offers `open.num_arrivals` cycles on a deterministic Poisson schedule,
  /// dealing arrivals round-robin across `sessions` (each session's queries
  /// are replayed cyclically). Every arrival passes the admission gate:
  /// shed arrivals are counted and dropped; admitted arrivals run on the
  /// pool, in degraded mode via ProtectShedRefresh once the controller is
  /// past its watermark. Serializes with Run on run_mu_.
  OpenLoopReport RunOpenLoop(const std::vector<SessionWorkload>& sessions,
                             const OpenLoopOptions& open) EXCLUDES(run_mu_);

  const DriverOptions& options() const { return options_; }

 private:
  SessionStats RunSession(uint64_t session_id,
                          const SessionWorkload& workload) const;

  const topicmodel::LdaModel& model_;
  const topicmodel::LdaInferencer& inferencer_;
  const search::QueryEngine& engine_;
  DriverOptions options_;
  /// One word-sampling CDF table for the whole fleet: every session's
  /// generator borrows it read-only instead of building a private O(T*V)
  /// copy. Absent under the incoherent-ghosts ablation, which samples
  /// uniformly.
  std::optional<core::TopicCdfTable> topic_cdfs_;
  /// Serializes Run calls: the worker pool and the per-run report slots
  /// are a single-flight resource (ThreadPool::ParallelFor itself is
  /// concurrency-safe, but interleaved runs would interleave their wall
  /// clocks and defeat the per-run determinism digests).
  mutable util::Mutex run_mu_;
  /// Worker pool, kept across Run calls; null when the resolved thread
  /// count is 1 (sessions then run inline on the caller's thread).
  /// Created in the constructor, used only by the (serialized) Run.
  std::unique_ptr<util::ThreadPool> pool_ GUARDED_BY(run_mu_);
};

/// Deals `queries` round-robin into `num_sessions` session workloads
/// (query i goes to session i % num_sessions), modeling distinct users
/// drawing from one benchmark workload.
std::vector<SessionWorkload> DealSessions(
    const std::vector<std::vector<text::TermId>>& queries,
    size_t num_sessions);

}  // namespace toppriv::serving

#endif  // TOPPRIV_SERVING_SESSION_DRIVER_H_
