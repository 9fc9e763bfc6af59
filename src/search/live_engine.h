// Ranked retrieval over a LiveIndex: acquire a snapshot, evaluate every
// segment with the shared cores, merge into the global top-k.
//
// This is also the repo's sharded engine: a static K-shard partition is a
// LiveIndex holding the corpus as K sealed segments with no writes (see
// experiments::BuildSegmentedIndex), so one scatter/gather and one
// deadline path serve both (tests/sharding_test.cc).
//
// Parity contract (tests/live_index_test.cc): for any ingest schedule —
// batch splits, merges, deletes-then-reinserts — results are BIT-identical
// to the monolithic SearchEngine over a static InvertedIndex::Build of the
// live collection, under every scorer. Three ingredients:
//   1. every segment scores with the snapshot's GLOBAL live collection
//      statistics and per-term document frequencies (global IDF), never a
//      segment's local ones;
//   2. both engines run the identical evaluation core (AccumulateTopK)
//      over the identical canonical CollapseQuery order, with tombstoned
//      documents skipped without perturbing any survivor's floating-point
//      op sequence;
//   3. per-segment results lift local doc ids to the snapshot's DENSE id
//      space (live docs renumbered in ingest order — exactly the static
//      build's assignment) and merge through TopK's (score desc, doc asc)
//      total order, so ties break identically.
//
// PARALLEL FAN-OUT, invisible in the results. Construction may borrow a
// util::ThreadPool; each Evaluate then fans the per-segment evaluations
// out over its workers. Determinism: every iteration writes only its own
// pre-allocated result slot with its own thread-local scratch, each
// segment's arithmetic is untouched (same core, same inputs), and the
// final merge walks the slots in segment order on the calling thread — so
// the pooled path is bit-identical to the sequential one regardless of
// completion order. The pool must not be one the caller itself blocks
// inside (ParallelFor from a worker of the same pool deadlocks), so the
// serving bench gives the engine a pool distinct from the session
// driver's.
#ifndef TOPPRIV_SEARCH_LIVE_ENGINE_H_
#define TOPPRIV_SEARCH_LIVE_ENGINE_H_

#include <memory>
#include <vector>

#include "corpus/corpus.h"
#include "index/live/live_index.h"
#include "search/engine.h"
#include "search/scorer.h"
#include "search/topk.h"
#include "util/thread_pool.h"

namespace toppriv::search {

/// Snapshot-isolated search engine over a LiveIndex.
class LiveSearchEngine : public QueryEngine {
 public:
  /// Borrows the corpus (for corpus() consumers) and the live index; both
  /// must outlive the engine. Each Evaluate acquires the index's current
  /// snapshot, so concurrent ingest/merge/delete never races a query.
  /// `eval_pool`, when non-null, is a borrowed pool the per-segment
  /// evaluations fan out on (see file comment for the determinism and
  /// no-self-pool rules); null evaluates segments sequentially.
  LiveSearchEngine(const corpus::Corpus& corpus, index::live::LiveIndex& live,
                   std::unique_ptr<Scorer> scorer,
                   util::ThreadPool* eval_pool = nullptr);

  LiveSearchEngine(const LiveSearchEngine&) = delete;
  LiveSearchEngine& operator=(const LiveSearchEngine&) = delete;

  std::vector<ScoredDoc> Search(const std::vector<text::TermId>& terms,
                                size_t k, uint64_t cycle_id = 0) override;

  std::vector<ScoredDoc> Evaluate(const std::vector<text::TermId>& terms,
                                  size_t k) const override;

  /// Deadline-aware evaluation against the current snapshot: the deadline
  /// (shared sticky cancel flag) reaches every segment's eval core, so one
  /// expiry observation stops the whole per-segment fan-out. Accepted
  /// queries are bit-identical to Evaluate. A Degraded index still serves
  /// this path — reads come from the last published snapshot by design.
  util::StatusOr<std::vector<ScoredDoc>> EvaluateWithOptions(
      const std::vector<text::TermId>& terms, size_t k,
      const QueryOptions& options) const override;

  /// Evaluation pinned to a caller-held snapshot (what Evaluate does with
  /// the current one). Exposed so tests can prove snapshot isolation:
  /// results against an old snapshot must not move while the index churns.
  std::vector<ScoredDoc> EvaluateOn(const index::live::IndexSnapshot& snapshot,
                                    const std::vector<text::TermId>& terms,
                                    size_t k,
                                    const util::Deadline* deadline =
                                        nullptr) const;

  const QueryLog& query_log() const override { return log_; }
  QueryLog& mutable_query_log() override { return log_; }

  const corpus::Corpus& corpus() const override { return corpus_; }
  const index::live::LiveIndex& live_index() const { return live_; }
  const Scorer& scorer() const override { return *scorer_; }

  /// Segment-evaluation threads (1 = sequential scatter).
  size_t num_threads() const {
    return eval_pool_ != nullptr ? eval_pool_->num_threads() : 1;
  }

 private:
  const corpus::Corpus& corpus_;
  index::live::LiveIndex& live_;
  std::unique_ptr<Scorer> scorer_;
  /// Borrowed fan-out pool; null = sequential. Never Submit/ParallelFor
  /// targets of the caller's own blocking pool (constructor contract).
  util::ThreadPool* eval_pool_;
  QueryLog log_;
};

}  // namespace toppriv::search

#endif  // TOPPRIV_SEARCH_LIVE_ENGINE_H_
