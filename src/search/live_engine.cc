#include "search/live_engine.h"

#include <utility>

#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace toppriv::search {

LiveSearchEngine::LiveSearchEngine(const corpus::Corpus& corpus,
                                   index::live::LiveIndex& live,
                                   std::unique_ptr<Scorer> scorer,
                                   EvalStrategy strategy,
                                   util::ThreadPool* eval_pool)
    : corpus_(corpus),
      live_(live),
      scorer_(std::move(scorer)),
      eval_pool_(eval_pool),
      strategy_(strategy) {
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

std::vector<std::shared_ptr<const std::vector<double>>>
LiveSearchEngine::SegmentBounds(const index::live::IndexSnapshot& snapshot,
                                const CollectionStats& stats) const {
  const size_t n = snapshot.num_segments();
  std::vector<std::shared_ptr<const std::vector<double>>> tables(n);
  std::shared_ptr<const BoundsCache> cache;
  {
    util::MutexLock lock(&bounds_mu_);
    cache = bounds_cache_;
  }
  // A cache generation is usable only at the exact df-version it was
  // computed at: the tables bake in the global df and collection stats,
  // and a stale (previous-version) bound could fall below a real term
  // contribution and break MaxScore's prune-safety. Segment identity is
  // the second key — a merge creates new segments without bumping the
  // version (it is df-neutral), so its outputs miss here and compute.
  const bool cache_current =
      cache != nullptr && cache->df_version == snapshot.df_version();
  bool computed = false;
  for (size_t s = 0; s < n; ++s) {
    const index::live::SnapshotSegment& ss = snapshot.segment(s);
    if (cache_current) {
      for (const auto& [segment, table] : cache->tables) {
        if (segment.get() == ss.segment.get()) {
          tables[s] = table;
          break;
        }
      }
    }
    if (tables[s] == nullptr) {
      tables[s] = std::make_shared<const std::vector<double>>(
          ComputeTermImpactBounds(ss.segment->index(), stats, *scorer_,
                                  &snapshot.global_df()));
      computed = true;
    }
  }
  if (computed &&
      (cache == nullptr || snapshot.df_version() >= cache->df_version)) {
    // Publish this snapshot's full table set (last writer wins; an
    // EvaluateOn against an OLD pinned snapshot never clobbers a newer
    // cache thanks to the version guard above).
    auto fresh = std::make_shared<BoundsCache>();
    fresh->df_version = snapshot.df_version();
    fresh->tables.reserve(n);
    for (size_t s = 0; s < n; ++s) {
      fresh->tables.emplace_back(snapshot.segment(s).segment, tables[s]);
    }
    util::MutexLock lock(&bounds_mu_);
    bounds_cache_ = std::move(fresh);
  }
  return tables;
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

  std::vector<std::shared_ptr<const std::vector<double>>> bounds;
  if (strategy_ == EvalStrategy::kMaxScore) {
    bounds = SegmentBounds(snapshot, stats);
  }

  // Scatter over the segments — sequentially, or fanned out on the
  // borrowed pool. Either way each iteration fills only its own slot with
  // its own thread-local scratch, and the merge below walks the slots in
  // segment order on this thread, so results are bit-identical across
  // thread counts (see file comment).
  const size_t n = snapshot.num_segments();
  std::vector<std::vector<ScoredDoc>> per_segment(n);
  TOPPRIV_TRACE_SPAN(fanout_span, "search.segment_fanout");
  TOPPRIV_SCOPED_TIMER_US("search.segment_fanout_us");
  TOPPRIV_HISTOGRAM_OBSERVE("search.segment_fanout_width", n,
                            util::CountBuckets());
  const auto eval_segment = [&](size_t s) {
    static thread_local EvalScratch scratch;
    const index::live::SnapshotSegment& ss = snapshot.segment(s);
    per_segment[s] = EvaluateTopK(
        strategy_, ss.segment->index(), stats, *scorer_, query, dfs, k,
        &scratch, bounds.empty() ? nullptr : bounds[s].get(),
        ss.deleted.get(), deadline);
  };
  if (eval_pool_ != nullptr && n > 1) {
    eval_pool_->ParallelFor(n, eval_segment);
  } else {
    for (size_t s = 0; s < n; ++s) eval_segment(s);
  }

  // Deterministic gather: lift local ids into the snapshot's dense space
  // in segment order; the global top-k is a subset of the union of
  // per-segment top-k lists.
  TopK merged(k);
  for (size_t s = 0; s < n; ++s) {
    const index::live::SnapshotSegment& ss = snapshot.segment(s);
    for (const ScoredDoc& sd : per_segment[s]) {
      merged.Offer(ss.DenseId(sd.doc), sd.score);
    }
  }
  return merged.Finish();
}

}  // namespace toppriv::search
