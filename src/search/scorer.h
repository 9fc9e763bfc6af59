// Similarity scoring functions for the vector space model.
//
// The paper assumes a conventional similarity engine ("the classical vector
// space model [7]"); we provide TF-IDF cosine, Okapi BM25 and a Dirichlet-
// smoothed query-likelihood scorer so the substrate matches what enterprise
// engines actually run. Scorers are stateless w.r.t. queries and consume
// COLLECTION-level statistics only, passed explicitly as a CollectionStats:
// with a sharded index each shard scores against the global statistics
// (distributed-IR "global IDF"), which is what keeps sharded rankings
// bit-identical to the monolithic engine's.
#ifndef TOPPRIV_SEARCH_SCORER_H_
#define TOPPRIV_SEARCH_SCORER_H_

#include <memory>
#include <string>

#include "index/inverted_index.h"

namespace toppriv::search {

/// Collection-wide statistics a scorer consumes. For a monolithic index
/// these mirror the index's own accessors; for a sharded index they are the
/// manifest's aggregates over every shard.
struct CollectionStats {
  size_t num_documents = 0;
  double avg_doc_length = 0.0;
  uint64_t total_tokens = 0;

  static CollectionStats Of(const index::InvertedIndex& index) {
    return CollectionStats{index.num_documents(), index.avg_doc_length(),
                           index.total_tokens()};
  }
};

/// The per-term constants of one query term, computed once per query by
/// Scorer::PrepareTerm and read by Scorer::ScorePosting for every posting
/// of the term. Which fields a scorer fills is its own business; callers
/// only pass the struct back to the scorer that made it.
struct PreparedTerm {
  /// False when the term contributes 0.0 to every document (df == 0, or
  /// an empty collection under LM-Dirichlet).
  bool active = false;
  /// Query term frequency, as a double.
  double qtf = 0.0;
  /// BM25: the term's idf. TF-IDF: the query weight qtf * idf.
  /// LM-Dirichlet: mu * p(w|C), the smoothing mass.
  double term_weight = 0.0;
  /// BM25: the collection's average document length.
  double avg_doc_length = 0.0;
};

/// Term-at-a-time scoring interface: contribution of one (term, posting)
/// pair to a document's accumulator, split into a per-term half and a
/// per-posting half. Evaluators call PrepareTerm once per query term and
/// ScorePosting once per posting, so per-term work (the idf logarithm)
/// leaves the posting loop. ScorePosting performs exactly the operations,
/// in exactly the order, of the one-shot formula, so the split moves no
/// result bit; TermScore composes the two, which makes it equal to the
/// evaluators' path by construction.
class Scorer {
 public:
  virtual ~Scorer() = default;

  /// Per-term constants for a term that occurs in `df` documents of the
  /// whole collection and `qtf` times in the query.
  virtual PreparedTerm PrepareTerm(const CollectionStats& stats, uint32_t df,
                                   uint32_t qtf) const = 0;

  /// Score contribution of the prepared term occurring `tf` times in a
  /// document of `doc_length` tokens.
  virtual double ScorePosting(const PreparedTerm& term, uint32_t doc_length,
                              uint32_t tf) const = 0;

  /// One-shot form of PrepareTerm + ScorePosting.
  double TermScore(const CollectionStats& stats, uint32_t doc_length,
                   uint32_t tf, uint32_t df, uint32_t qtf) const {
    return ScorePosting(PrepareTerm(stats, df, qtf), doc_length, tf);
  }

  /// Optional per-document normalization applied after accumulation.
  /// Contract (the MaxScore evaluator depends on it): for a non-negative
  /// accumulated score, Normalize must never return MORE than the
  /// accumulator — it may shrink a score (cosine length division, the
  /// Dirichlet length prior), never inflate it.
  virtual double Normalize(const CollectionStats& stats, uint32_t doc_length,
                           double accumulated) const {
    (void)stats;
    (void)doc_length;
    return accumulated;
  }

  /// Upper bound on TermScore over every posting of a term: for all
  /// doc_length and all tf <= max_tf,
  ///   TermScore(stats, doc_length, tf, df, qtf) <= UpperBound(...).
  /// The MaxScore evaluator partitions query terms and skips blocks with
  /// these (list-level bounds use the list's max tf, block-level bounds the
  /// block's). The default evaluates TermScore at tf = max_tf and
  /// doc_length = 0, which is a bit-safe bound whenever TermScore is
  /// non-decreasing in tf and non-increasing in doc_length through the
  /// exact floating-point operations it performs — true of all three
  /// scorers here (rounding is monotone, so the FP inequalities follow the
  /// real ones). A scorer violating either monotonicity must override.
  virtual double UpperBound(const CollectionStats& stats, uint32_t df,
                            uint32_t max_tf, uint32_t qtf) const {
    if (max_tf == 0) return 0.0;
    return TermScore(stats, /*doc_length=*/0, max_tf, df, qtf);
  }

  /// Scorer name for logs and benches.
  virtual std::string Name() const = 0;
};

/// Classic lnc.ltc-style TF-IDF with cosine length normalization
/// (approximated by document token length).
class TfIdfCosineScorer : public Scorer {
 public:
  PreparedTerm PrepareTerm(const CollectionStats& stats, uint32_t df,
                           uint32_t qtf) const override;
  double ScorePosting(const PreparedTerm& term, uint32_t doc_length,
                      uint32_t tf) const override;
  double Normalize(const CollectionStats& stats, uint32_t doc_length,
                   double accumulated) const override;
  std::string Name() const override { return "tfidf-cosine"; }
};

/// Okapi BM25 with standard parameters.
class Bm25Scorer : public Scorer {
 public:
  explicit Bm25Scorer(double k1 = 1.2, double b = 0.75) : k1_(k1), b_(b) {}
  PreparedTerm PrepareTerm(const CollectionStats& stats, uint32_t df,
                           uint32_t qtf) const override;
  double ScorePosting(const PreparedTerm& term, uint32_t doc_length,
                      uint32_t tf) const override;
  std::string Name() const override { return "bm25"; }

 private:
  double k1_;
  double b_;
};

/// Dirichlet-smoothed query likelihood (language modeling approach). The
/// collection language model comes from CollectionStats::total_tokens.
class LmDirichletScorer : public Scorer {
 public:
  explicit LmDirichletScorer(double mu = 1000.0);
  PreparedTerm PrepareTerm(const CollectionStats& stats, uint32_t df,
                           uint32_t qtf) const override;
  double ScorePosting(const PreparedTerm& term, uint32_t doc_length,
                      uint32_t tf) const override;
  double Normalize(const CollectionStats& stats, uint32_t doc_length,
                   double accumulated) const override;
  std::string Name() const override { return "lm-dirichlet"; }

 private:
  double mu_;
};

/// Factory helpers.
std::unique_ptr<Scorer> MakeTfIdfScorer();
std::unique_ptr<Scorer> MakeBm25Scorer(double k1 = 1.2, double b = 0.75);

}  // namespace toppriv::search

#endif  // TOPPRIV_SEARCH_SCORER_H_
