// The enterprise text search engine (the paper's SE) plus the query log the
// curious adversary analyzes after the fact.
#ifndef TOPPRIV_SEARCH_ENGINE_H_
#define TOPPRIV_SEARCH_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "index/inverted_index.h"
#include "search/scorer.h"
#include "search/topk.h"
#include "text/vocabulary.h"
#include "util/deadline.h"
#include "util/status.h"

namespace toppriv::search {

/// One query term after collapsing duplicates: the term and its query term
/// frequency.
struct QueryTerm {
  text::TermId term = 0;
  uint32_t qtf = 0;
};

/// How a query is evaluated against an index: term-at-a-time accumulation
/// (AccumulateTopK), the only evaluator. Kept only for perfbench/, which
/// sets and reads it; remove in the next benchmark PR.
enum class EvalStrategy { kTAAT };

class EvalKernel;

/// Reusable evaluation scratch: a contiguous score accumulator with one
/// slot per document, plus the touched-document list that makes clearing
/// O(touched) instead of O(num_documents). Reusing one scratch across
/// queries removes the per-query hash-map allocation that used to dominate
/// Evaluate. Not thread-safe: one scratch per thread (the engines keep a
/// thread-local one).
///
/// The scratch also holds the scorer's per-document-length half
/// (Scorer::LengthPart) tabulated by document length, so a posting costs a
/// table read instead of BM25's length division and a touched document
/// none of TF-IDF's sqrt or LM-Dirichlet's log. The table is keyed by value
/// (Scorer::length_key: scorer kind, parameters, avg_doc_length bits),
/// rebuilt only when the key changes and grown to each index's largest
/// document length. Engines sharing a thread therefore share it with no
/// per-engine cache and no invalidation hook: another scorer, or a live
/// publish that moves avg_doc_length, simply misses the key.
class EvalScratch {
 public:
  EvalScratch() = default;
  EvalScratch(const EvalScratch&) = delete;
  EvalScratch& operator=(const EvalScratch&) = delete;

 private:
  friend class EvalKernel;

  /// Grows the accumulator to cover `num_documents` and resets any state a
  /// previous (possibly abandoned) query left behind.
  void Prepare(size_t num_documents);

  // Contiguous accumulator + touched list.
  std::vector<double> scores_;
  std::vector<char> is_touched_;
  std::vector<corpus::DocId> touched_;
  // Scorer::LengthPart by document length, valid for length_key_.
  std::vector<double> length_parts_;
  LengthKey length_key_;
};

/// Collapses a bag of term ids to unique (term, qtf) pairs in ascending
/// term order. The sorted order fixes the floating-point accumulation order
/// of every evaluation path — monolithic or per-segment — so results are
/// bit-identical across engines (and independent of any hash-map iteration
/// order).
std::vector<QueryTerm> CollapseQuery(const std::vector<text::TermId>& terms);

/// The term-at-a-time evaluation core every engine runs: accumulates
/// `query` over `index`'s posting lists into `scratch`, scoring with the
/// collection-wide `stats` and the per-term document frequencies `dfs`
/// (parallel to `query`; the monolithic engine passes the index's own df,
/// the segmented LiveSearchEngine passes the snapshot's GLOBAL df so every
/// segment scores identically), then extracts the top `k`. Result doc ids are local to
/// `index`; segmented callers lift them into the snapshot's dense id space
/// before merging. Exposing this lets SearchEngine and LiveSearchEngine run
/// literally the same arithmetic, which is what the bit-parity suites lock
/// down.
///
/// `exclude`, when given, is a per-document tombstone mask (parallel to
/// `index`'s local doc-id space; nonzero = excluded): masked documents
/// never enter the top-k. The live index evaluates sealed segments with
/// their delete bitmaps here; since scoring a document reads only its own
/// posting tf, its own length and the collection-wide stats/df, skipping
/// masked documents changes no surviving document's score bits — which is
/// what keeps the live engine bit-identical to a static build of the
/// surviving corpus.
///
/// `deadline`, when given, is polled once per decoded block. On expiry the
/// core abandons the query and returns an EMPTY list — a partial top-k is
/// never surfaced, so accepted (non-expired) queries stay bit-identical to
/// a run with no deadline at all. Callers that passed a deadline must
/// re-check Expired() afterward and map the abandonment to
/// kDeadlineExceeded (EvaluateWithOptions does).
std::vector<ScoredDoc> AccumulateTopK(const index::InvertedIndex& index,
                                      const CollectionStats& stats,
                                      const Scorer& scorer,
                                      const std::vector<QueryTerm>& query,
                                      const std::vector<uint32_t>& dfs,
                                      size_t k, EvalScratch* scratch,
                                      const std::vector<char>* exclude =
                                          nullptr,
                                      const util::Deadline* deadline =
                                          nullptr);

/// One entry in the engine-side query log: the adversary's view. Queries
/// arrive as bags of term ids; the engine cannot tell user queries from
/// ghost queries (that is the point of TopPriv).
struct LoggedQuery {
  uint64_t sequence = 0;
  /// Cycle tag: queries submitted together share a tag. The paper's threat
  /// model lets the adversary group a cycle (they arrive back-to-back), so
  /// the log keeps the grouping explicit; adversary/log_segmentation.h
  /// additionally models an adversary who must RECOVER the grouping from
  /// arrival times alone.
  uint64_t cycle_id = 0;
  /// Arrival time in seconds (simulation clock; 0 when untimed).
  double timestamp = 0.0;
  std::vector<text::TermId> terms;
};

/// Append-only log of everything the engine processed.
class QueryLog {
 public:
  /// Takes the term vector by value and moves it into the entry: an lvalue
  /// caller pays exactly one copy (into the parameter), an rvalue caller
  /// none — the old const-ref signature forced a copy into a temporary
  /// LoggedQuery on every call.
  void Record(uint64_t cycle_id, std::vector<text::TermId> terms,
              double timestamp = 0.0) {
    log_.push_back(
        LoggedQuery{next_seq_++, cycle_id, timestamp, std::move(terms)});
  }
  /// Pre-grows the log for a known batch (a protection cycle, a workload
  /// replay) so bulk submission does not re-allocate per query.
  void Reserve(size_t additional) { log_.reserve(log_.size() + additional); }
  const std::vector<LoggedQuery>& entries() const { return log_; }
  size_t size() const { return log_.size(); }
  void Clear() {
    log_.clear();
    next_seq_ = 0;
  }

 private:
  std::vector<LoggedQuery> log_;
  uint64_t next_seq_ = 0;
};

/// Per-call knobs for the failure-aware evaluation entry point.
struct QueryOptions {
  /// Cooperative deadline/cancellation, polled at block-decode granularity
  /// inside the eval cores and across the segment scatter. Null = none.
  /// The Deadline's cancel flag is sticky, so one expiry observation stops
  /// every later segment.
  const util::Deadline* deadline = nullptr;
};

/// Abstract ranked-retrieval engine: what the privacy layer (TrustedClient,
/// SessionProtector) and the serving driver program against. Implemented by
/// the monolithic SearchEngine and by LiveSearchEngine, which serves a live
/// index; the live parity suite proves the two interchangeable bit for
/// bit, so every layer above can swap one for the other freely.
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// Processes a query (bag of term ids), returning the top-k documents.
  /// Every call is recorded in the query log under `cycle_id`.
  virtual std::vector<ScoredDoc> Search(const std::vector<text::TermId>& terms,
                                        size_t k, uint64_t cycle_id = 0) = 0;

  /// Evaluation without logging (used internally and by tests that compare
  /// against the logged path). Uses thread-local scratch space, so
  /// concurrent callers (the serving driver's sessions) are safe.
  virtual std::vector<ScoredDoc> Evaluate(
      const std::vector<text::TermId>& terms, size_t k) const = 0;

  /// Deadline-aware evaluation. An accepted query returns results
  /// BIT-identical to Evaluate (the deadline machinery never perturbs
  /// surviving arithmetic); an expired or cancelled one returns
  /// kDeadlineExceeded and its partial work is discarded, never surfaced.
  /// The base implementation brackets Evaluate with expiry checks (coarse:
  /// a stuck engine still runs to completion); the real engines override
  /// it to poll inside the eval cores and across the segment scatter, so a
  /// wedged segment costs at most one block decode past the deadline.
  virtual util::StatusOr<std::vector<ScoredDoc>> EvaluateWithOptions(
      const std::vector<text::TermId>& terms, size_t k,
      const QueryOptions& options) const;

  virtual const QueryLog& query_log() const = 0;
  virtual QueryLog& mutable_query_log() = 0;

  /// The corpus being searched (clients analyze raw text against its
  /// vocabulary).
  virtual const corpus::Corpus& corpus() const = 0;

  /// Scorer in use (for logs and benches).
  virtual const Scorer& scorer() const = 0;

  /// Always kTAAT. Kept only for perfbench/, whose engine wrapper overrides
  /// it; remove in the next benchmark PR.
  virtual EvalStrategy eval_strategy() const { return EvalStrategy::kTAAT; }
};

/// Similarity search engine over a monolithic inverted index: the
/// one-segment case, evaluated straight over the borrowed index (no copy).
///
/// The engine is deliberately unmodified by the privacy layer: TopPriv's
/// design constraint is that it works against existing engines (unlike the
/// PDX baseline, which requires a homomorphic scoring protocol).
class SearchEngine : public QueryEngine {
 public:
  /// The engine borrows the corpus and index; both must outlive it.
  SearchEngine(const corpus::Corpus& corpus, const index::InvertedIndex& index,
               std::unique_ptr<Scorer> scorer);

  SearchEngine(const SearchEngine&) = delete;
  SearchEngine& operator=(const SearchEngine&) = delete;

  std::vector<ScoredDoc> Search(const std::vector<text::TermId>& terms,
                                size_t k, uint64_t cycle_id = 0) override;

  std::vector<ScoredDoc> Evaluate(const std::vector<text::TermId>& terms,
                                  size_t k) const override;

  /// Deadline threaded into the eval core (block-decode granularity).
  util::StatusOr<std::vector<ScoredDoc>> EvaluateWithOptions(
      const std::vector<text::TermId>& terms, size_t k,
      const QueryOptions& options) const override;

  const QueryLog& query_log() const override { return log_; }
  QueryLog& mutable_query_log() override { return log_; }

  const corpus::Corpus& corpus() const override { return corpus_; }
  const index::InvertedIndex& index() const { return index_; }
  const Scorer& scorer() const override { return *scorer_; }

 private:
  /// Shared body of Evaluate and EvaluateWithOptions; `deadline` may be
  /// null. An expired deadline yields an empty list (callers re-check).
  std::vector<ScoredDoc> EvaluateImpl(const std::vector<text::TermId>& terms,
                                      size_t k,
                                      const util::Deadline* deadline) const;

  const corpus::Corpus& corpus_;
  const index::InvertedIndex& index_;
  const std::unique_ptr<Scorer> scorer_;
  const CollectionStats stats_;
  QueryLog log_;
};

}  // namespace toppriv::search

#endif  // TOPPRIV_SEARCH_ENGINE_H_
