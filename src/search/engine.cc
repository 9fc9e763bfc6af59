#include "search/engine.h"

#include <algorithm>

#include "util/check.h"
#include "util/metrics.h"

namespace toppriv::search {

void EvalScratch::Prepare(size_t num_documents) {
  if (scores_.size() < num_documents) {
    // Scores need no initialization: a slot is only read after its
    // first-touch assignment below.
    scores_.resize(num_documents);
    is_touched_.resize(num_documents, 0);
  }
  // Self-healing reset in case a previous query was abandoned mid-flight.
  for (corpus::DocId doc : touched_) is_touched_[doc] = 0;
  touched_.clear();
}

std::vector<QueryTerm> CollapseQuery(const std::vector<text::TermId>& terms) {
  // Sort then run-length collapse. Queries are a handful of terms, so this
  // beats any hash map — and unlike a hash map its order is canonical, not
  // an artifact of bucket history, which the segmented engine's bit-parity
  // contract relies on.
  std::vector<text::TermId> sorted = terms;
  std::sort(sorted.begin(), sorted.end());
  std::vector<QueryTerm> query;
  query.reserve(sorted.size());
  for (text::TermId t : sorted) {
    if (!query.empty() && query.back().term == t) {
      ++query.back().qtf;
    } else {
      query.push_back(QueryTerm{t, 1});
    }
  }
  return query;
}

/// The evaluation core, a template over the scorer's class. AccumulateTopK
/// dispatches into it once per call through VisitScorer, so for a final
/// built-in scorer every per-posting and per-document call inlines; a
/// scorer defined elsewhere instantiates the same body over the base
/// class. A friend of EvalScratch.
class EvalKernel {
 public:
  /// Scorer::LengthPart for every length 0..index.max_doc_length(),
  /// indexed by length. Served from `scratch` while its key matches
  /// scorer.length_key(stats); otherwise rebuilt. Entries are a pure
  /// function of (key, length), so growing a matching table for a longer
  /// index only appends.
  template <typename S>
  static const double* LengthParts(const S& scorer,
                                   const CollectionStats& stats,
                                   const index::InvertedIndex& index,
                                   EvalScratch* scratch) {
    const LengthKey key = scorer.length_key(stats);
    std::vector<double>& table = scratch->length_parts_;
    if (!key.cacheable || !scratch->length_key_.cacheable ||
        key.bits != scratch->length_key_.bits) {
      table.clear();
      scratch->length_key_ = key;
    }
    for (size_t len = table.size(); len <= index.max_doc_length(); ++len) {
      table.push_back(scorer.LengthPart(stats, static_cast<uint32_t>(len)));
    }
    return table.data();
  }

  template <typename S>
  static std::vector<ScoredDoc> Taat(const S& scorer,
                                     const index::InvertedIndex& index,
                                     const CollectionStats& stats,
                                     const std::vector<QueryTerm>& query,
                                     const std::vector<uint32_t>& dfs,
                                     size_t k, EvalScratch* scratch,
                                     const std::vector<char>* exclude,
                                     const util::Deadline* deadline);
};

template <typename S>
std::vector<ScoredDoc> EvalKernel::Taat(const S& scorer,
                                        const index::InvertedIndex& index,
                                        const CollectionStats& stats,
                                        const std::vector<QueryTerm>& query,
                                        const std::vector<uint32_t>& dfs,
                                        size_t k, EvalScratch* scratch,
                                        const std::vector<char>* exclude,
                                        const util::Deadline* deadline) {
  TOPPRIV_CHECK_EQ(query.size(), dfs.size());
  if (query.empty() || k == 0) return {};
  // Hoisted so the common no-tombstone case (exclude == nullptr, every
  // static index and clean segment) pays one null check per posting.
  const char* excluded = exclude != nullptr ? exclude->data() : nullptr;
  TOPPRIV_DCHECK(exclude == nullptr ||
                 exclude->size() == index.num_documents());

  scratch->Prepare(index.num_documents());
  const double* length_parts = LengthParts(scorer, stats, index, scratch);

  // Term-at-a-time accumulation over posting lists into the contiguous
  // per-document array; documents containing none of the query terms are
  // never touched (the scalability property the paper's PIR discussion
  // contrasts against). The first touch assigns 0.0 before accumulating so
  // a slot's history cannot leak between queries. Postings stream through
  // one stack-resident PostingBlock, batch-decoded 128 at a time.
  std::vector<double>& scores = scratch->scores_;
  std::vector<char>& is_touched = scratch->is_touched_;
  std::vector<corpus::DocId>& touched = scratch->touched_;
  index::PostingBlock block;
  // Instrumentation accumulates in locals and flushes ONCE per call:
  // per-posting atomic traffic would swamp the <5% overhead budget.
  uint64_t blocks_decoded = 0;
  uint64_t postings_scored = 0;
  for (size_t qi = 0; qi < query.size(); ++qi) {
    const index::PostingList& list = index.Postings(query[qi].term);
    if (list.empty() || dfs[qi] == 0) continue;
    const PreparedTerm term = scorer.PrepareTerm(stats, dfs[qi], query[qi].qtf);
    for (size_t b = 0; b < list.num_blocks(); ++b) {
      // Cooperative cancellation, one check per 128-posting block. An
      // abandoned query surfaces NOTHING (the scratch self-heals on the
      // next Prepare), so a deadline can never leak a partial top-k.
      if (deadline != nullptr && deadline->Expired()) {
        TOPPRIV_COUNTER_ADD("search.taat.blocks_decoded", blocks_decoded);
        TOPPRIV_COUNTER_ADD("search.taat.postings_scored", postings_scored);
        return {};
      }
      list.DecodeBlock(b, &block);
      ++blocks_decoded;
      postings_scored += block.count;
      for (uint32_t i = 0; i < block.count; ++i) {
        const corpus::DocId doc = block.docs[i];
        TOPPRIV_DCHECK(doc < scores.size());
        if (excluded != nullptr && excluded[doc]) continue;
        if (!is_touched[doc]) {
          is_touched[doc] = 1;
          touched.push_back(doc);
          scores[doc] = 0.0;
        }
        scores[doc] += scorer.ScorePosting(
            term, length_parts[index.DocLength(doc)], block.tfs[i]);
      }
    }
  }

  TopK topk(k);
  for (corpus::DocId doc : touched) {
    topk.Offer(doc, scorer.Normalize(length_parts[index.DocLength(doc)],
                                     scores[doc]));
  }
  // Leave the scratch clean for the next query (O(touched), not O(docs)).
  for (corpus::DocId doc : touched) is_touched[doc] = 0;
  touched.clear();
  TOPPRIV_COUNTER_ADD("search.taat.blocks_decoded", blocks_decoded);
  TOPPRIV_COUNTER_ADD("search.taat.postings_scored", postings_scored);
  return topk.Finish();
}

std::vector<ScoredDoc> AccumulateTopK(const index::InvertedIndex& index,
                                      const CollectionStats& stats,
                                      const Scorer& scorer,
                                      const std::vector<QueryTerm>& query,
                                      const std::vector<uint32_t>& dfs,
                                      size_t k, EvalScratch* scratch,
                                      const std::vector<char>* exclude,
                                      const util::Deadline* deadline) {
  return VisitScorer(scorer, [&](const auto& s) {
    return EvalKernel::Taat(s, index, stats, query, dfs, k, scratch, exclude,
                            deadline);
  });
}

util::StatusOr<std::vector<ScoredDoc>> QueryEngine::EvaluateWithOptions(
    const std::vector<text::TermId>& terms, size_t k,
    const QueryOptions& options) const {
  // Coarse default for engines without an internal poll point: bracket the
  // whole evaluation with expiry checks. The result of an expired call is
  // always discarded — even when Evaluate happened to finish — so the
  // accept/reject decision is a pure function of the deadline, not of how
  // fast this particular engine ran relative to the check sites.
  if (options.deadline != nullptr && options.deadline->Expired()) {
    TOPPRIV_COUNTER_INC("search.deadline_exceeded");
    return util::Status::DeadlineExceeded("query deadline expired");
  }
  std::vector<ScoredDoc> results = Evaluate(terms, k);
  if (options.deadline != nullptr && options.deadline->Expired()) {
    TOPPRIV_COUNTER_INC("search.deadline_exceeded");
    return util::Status::DeadlineExceeded("query deadline expired");
  }
  return results;
}

SearchEngine::SearchEngine(const corpus::Corpus& corpus,
                           const index::InvertedIndex& index,
                           std::unique_ptr<Scorer> scorer)
    : corpus_(corpus),
      index_(index),
      scorer_(std::move(scorer)),
      stats_(CollectionStats::Of(index)) {
  TOPPRIV_CHECK(scorer_ != nullptr);
}

std::vector<ScoredDoc> SearchEngine::Search(
    const std::vector<text::TermId>& terms, size_t k, uint64_t cycle_id) {
  log_.Record(cycle_id, terms);
  return Evaluate(terms, k);
}

std::vector<ScoredDoc> SearchEngine::Evaluate(
    const std::vector<text::TermId>& terms, size_t k) const {
  return EvaluateImpl(terms, k, /*deadline=*/nullptr);
}

util::StatusOr<std::vector<ScoredDoc>> SearchEngine::EvaluateWithOptions(
    const std::vector<text::TermId>& terms, size_t k,
    const QueryOptions& options) const {
  const util::Deadline* deadline = options.deadline;
  if (deadline != nullptr && deadline->Expired()) {
    TOPPRIV_COUNTER_INC("search.deadline_exceeded");
    return util::Status::DeadlineExceeded("query deadline expired");
  }
  std::vector<ScoredDoc> results = EvaluateImpl(terms, k, deadline);
  if (deadline != nullptr && deadline->Expired()) {
    TOPPRIV_COUNTER_INC("search.deadline_exceeded");
    return util::Status::DeadlineExceeded("query deadline expired");
  }
  return results;
}

std::vector<ScoredDoc> SearchEngine::EvaluateImpl(
    const std::vector<text::TermId>& terms, size_t k,
    const util::Deadline* deadline) const {
  if (terms.empty() || k == 0) return {};
  std::vector<QueryTerm> query = CollapseQuery(terms);
  std::vector<uint32_t> dfs(query.size());
  for (size_t qi = 0; qi < query.size(); ++qi) {
    dfs[qi] = index_.DocFreq(query[qi].term);
  }
  static thread_local EvalScratch scratch;
  return AccumulateTopK(index_, stats_, *scorer_, query, dfs, k, &scratch,
                        /*exclude=*/nullptr, deadline);
}

}  // namespace toppriv::search
