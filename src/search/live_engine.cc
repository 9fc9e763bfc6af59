#include "search/live_engine.h"

#include <utility>

#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace toppriv::search {

LiveSearchEngine::LiveSearchEngine(const corpus::Corpus& corpus,
                                   index::live::LiveIndex& live,
                                   std::unique_ptr<Scorer> scorer)
    : corpus_(corpus), live_(live), scorer_(std::move(scorer)) {
  TOPPRIV_CHECK(scorer_ != nullptr);
}

std::vector<ScoredDoc> LiveSearchEngine::Search(
    const std::vector<text::TermId>& terms, size_t k, uint64_t cycle_id) {
  log_.Record(cycle_id, terms);
  return Evaluate(terms, k);
}

std::vector<ScoredDoc> LiveSearchEngine::Evaluate(
    const std::vector<text::TermId>& terms, size_t k) const {
  const std::shared_ptr<const index::live::IndexSnapshot> snapshot =
      live_.Acquire();
  return EvaluateOn(*snapshot, terms, k);
}

util::StatusOr<std::vector<ScoredDoc>> LiveSearchEngine::EvaluateWithOptions(
    const std::vector<text::TermId>& terms, size_t k,
    const QueryOptions& options) const {
  const util::Deadline* deadline = options.deadline;
  if (deadline != nullptr && deadline->Expired()) {
    TOPPRIV_COUNTER_INC("search.deadline_exceeded");
    return util::Status::DeadlineExceeded("query deadline expired");
  }
  const std::shared_ptr<const index::live::IndexSnapshot> snapshot =
      live_.Acquire();
  std::vector<ScoredDoc> results = EvaluateOn(*snapshot, terms, k, deadline);
  if (deadline != nullptr && deadline->Expired()) {
    TOPPRIV_COUNTER_INC("search.deadline_exceeded");
    return util::Status::DeadlineExceeded("query deadline expired");
  }
  return results;
}

std::vector<ScoredDoc> LiveSearchEngine::EvaluateOn(
    const index::live::IndexSnapshot& snapshot,
    const std::vector<text::TermId>& terms, size_t k,
    const util::Deadline* deadline) const {
  if (terms.empty() || k == 0) return {};

  // One canonical query plan for every segment: canonical term order,
  // GLOBAL live document frequencies, global live collection stats.
  const std::vector<QueryTerm> query = CollapseQuery(terms);
  std::vector<uint32_t> dfs(query.size());
  for (size_t qi = 0; qi < query.size(); ++qi) {
    dfs[qi] = snapshot.DocFreq(query[qi].term);
  }
  CollectionStats stats;
  stats.num_documents = snapshot.num_documents();
  stats.avg_doc_length = snapshot.avg_doc_length();
  stats.total_tokens = snapshot.total_tokens();

  // Scatter over the segments in order, lifting each one's local ids
  // into the snapshot's dense space as its results are merged: the global
  // top-k is a subset of the union of per-segment top-k lists.
  const size_t n = snapshot.num_segments();
  TOPPRIV_TRACE_SPAN(fanout_span, "search.segment_fanout");
  TOPPRIV_SCOPED_TIMER_US("search.segment_fanout_us");
  TOPPRIV_HISTOGRAM_OBSERVE("search.segment_fanout_width", n,
                            util::CountBuckets());
  static thread_local EvalScratch scratch;
  TopK merged(k);
  for (size_t s = 0; s < n; ++s) {
    const index::live::SnapshotSegment& ss = snapshot.segment(s);
    for (const ScoredDoc& sd :
         AccumulateTopK(ss.segment->index(), stats, *scorer_, query, dfs, k,
                        &scratch, ss.deleted.get(), deadline)) {
      merged.Offer(ss.DenseId(sd.doc), sd.score);
    }
  }
  return merged.Finish();
}

}  // namespace toppriv::search
