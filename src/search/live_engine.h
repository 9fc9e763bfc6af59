// Ranked retrieval over a LiveIndex: acquire a snapshot, evaluate every
// segment with the shared core, merge into the global top-k.
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
// The scatter is sequential, on the caller's thread: concurrent callers
// are the parallelism (docs/ARCHITECTURE.md "Why one sequential scatter"
// has the measurements a per-query fan-out lost).
#ifndef TOPPRIV_SEARCH_LIVE_ENGINE_H_
#define TOPPRIV_SEARCH_LIVE_ENGINE_H_

#include <memory>
#include <vector>

#include "corpus/corpus.h"
#include "index/live/live_index.h"
#include "search/engine.h"
#include "search/scorer.h"
#include "search/topk.h"

namespace toppriv::search {

/// Snapshot-isolated search engine over a LiveIndex.
class LiveSearchEngine : public QueryEngine {
 public:
  /// Borrows the corpus (for corpus() consumers) and the live index; both
  /// must outlive the engine. Each Evaluate acquires the index's current
  /// snapshot, so concurrent ingest/merge/delete never races a query.
  LiveSearchEngine(const corpus::Corpus& corpus, index::live::LiveIndex& live,
                   std::unique_ptr<Scorer> scorer);

  LiveSearchEngine(const LiveSearchEngine&) = delete;
  LiveSearchEngine& operator=(const LiveSearchEngine&) = delete;

  std::vector<ScoredDoc> Search(const std::vector<text::TermId>& terms,
                                size_t k, uint64_t cycle_id = 0) override;

  std::vector<ScoredDoc> Evaluate(const std::vector<text::TermId>& terms,
                                  size_t k) const override;

  /// Deadline-aware evaluation against the current snapshot: the deadline
  /// (shared sticky cancel flag) reaches every segment's eval core, so one
  /// expiry observation stops the remaining segments too. Accepted
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

 private:
  const corpus::Corpus& corpus_;
  index::live::LiveIndex& live_;
  std::unique_ptr<Scorer> scorer_;
  QueryLog log_;
};

}  // namespace toppriv::search

#endif  // TOPPRIV_SEARCH_LIVE_ENGINE_H_
