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

#include <array>
#include <cmath>
#include <cstdint>
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
};

/// Names a table of Scorer::LengthPart values by VALUE: the scorer's kind,
/// its parameters and the collection's average document length, compared
/// as bit patterns. Two engines with equal parameters therefore share a
/// table, a live publish that moves avg_doc_length misses it, and a freed
/// scorer whose address is reused can never be served a stale one (which a
/// key by scorer pointer would allow).
struct LengthKey {
  /// False for a scorer whose parameters the key cannot see
  /// (Scorer::Kind::kCustom): a table for it is rebuilt on every use.
  bool cacheable = false;
  /// Kind, two parameters, avg_doc_length.
  std::array<uint64_t, 4> bits{};
};

/// Term-at-a-time scoring interface, split three ways so evaluators hoist
/// everything that does not vary per posting:
///  - PrepareTerm: the per-term half (the idf logarithm), once per query
///    term;
///  - LengthPart: the per-document-length half, once per distinct document
///    length (evaluators tabulate it by length in EvalScratch);
///  - ScorePosting / Normalize: what is left per posting / per document.
/// The split forms perform exactly the operations, in exactly the order, of
/// the one-shot formulas, so splitting moves no result bit; TermScore
/// composes them, which makes it equal to the evaluators' path by
/// construction.
///
/// The three scorers below are final and define their per-posting methods
/// in this header: an evaluator dispatches once per call (VisitScorer) into
/// a template over the concrete class, where those calls inline. Any other
/// subclass is evaluated through the same template over the base class,
/// with virtual calls.
class Scorer {
 public:
  /// The concrete scorers of this file; every other subclass is kCustom.
  enum class Kind { kCustom, kTfIdfCosine, kBm25, kLmDirichlet };

  virtual ~Scorer() = default;

  Kind kind() const { return kind_; }

  /// Per-term constants for a term that occurs in `df` documents of the
  /// whole collection and `qtf` times in the query.
  virtual PreparedTerm PrepareTerm(const CollectionStats& stats, uint32_t df,
                                   uint32_t qtf) const = 0;

  /// The per-document-length half: everything ScorePosting and Normalize
  /// need of a document besides its tf. It may read `stats` only through
  /// avg_doc_length, which length_key() covers.
  virtual double LengthPart(const CollectionStats& stats,
                            uint32_t doc_length) const = 0;

  /// Score contribution of the prepared term occurring `tf` times in a
  /// document whose LengthPart is `length_part`.
  virtual double ScorePosting(const PreparedTerm& term, double length_part,
                              uint32_t tf) const = 0;

  /// One-shot form of PrepareTerm + LengthPart + ScorePosting.
  double TermScore(const CollectionStats& stats, uint32_t doc_length,
                   uint32_t tf, uint32_t df, uint32_t qtf) const {
    return ScorePosting(PrepareTerm(stats, df, qtf),
                        LengthPart(stats, doc_length), tf);
  }

  /// Optional per-document normalization applied after accumulation, given
  /// the document's LengthPart: a pure function of (length_part,
  /// accumulated), so every engine ranks a document by the same bits. The
  /// built-in scorers only ever shrink a non-negative score (cosine length
  /// division, the Dirichlet length prior).
  virtual double Normalize(double length_part, double accumulated) const {
    (void)length_part;
    return accumulated;
  }

  /// The key of a LengthPart table built from `stats`. The default is not
  /// cacheable.
  virtual LengthKey length_key(const CollectionStats& stats) const {
    (void)stats;
    return LengthKey{};
  }

  /// Scorer name for logs and benches.
  virtual std::string Name() const = 0;

 protected:
  Scorer() = default;

  /// The key of a built-in scorer with parameters (p0, p1).
  LengthKey MakeLengthKey(double p0, double p1,
                          const CollectionStats& stats) const;

 private:
  // Only the final classes below may claim a kind other than kCustom, so
  // VisitScorer's static_casts are always to the object's real class.
  friend class TfIdfCosineScorer;
  friend class Bm25Scorer;
  friend class LmDirichletScorer;
  explicit Scorer(Kind kind) : kind_(kind) {}

  const Kind kind_ = Kind::kCustom;
};

/// Classic lnc.ltc-style TF-IDF with cosine length normalization
/// (approximated by document token length). LengthPart is sqrt(|d|).
class TfIdfCosineScorer final : public Scorer {
 public:
  TfIdfCosineScorer() : Scorer(Kind::kTfIdfCosine) {}
  PreparedTerm PrepareTerm(const CollectionStats& stats, uint32_t df,
                           uint32_t qtf) const override;
  double LengthPart(const CollectionStats& stats,
                    uint32_t doc_length) const override {
    (void)stats;
    return std::sqrt(static_cast<double>(doc_length));
  }
  double ScorePosting(const PreparedTerm& term, double length_part,
                      uint32_t tf) const override {
    (void)length_part;
    if (!term.active) return 0.0;
    double dtf = 1.0 + std::log(static_cast<double>(tf));
    return dtf * term.term_weight;
  }
  /// An empty document (sqrt length 0) normalizes to 0.
  double Normalize(double length_part, double accumulated) const override {
    if (length_part <= 0.0) return 0.0;
    return accumulated / length_part;
  }
  LengthKey length_key(const CollectionStats& stats) const override {
    return MakeLengthKey(0.0, 0.0, stats);
  }
  std::string Name() const override { return "tfidf-cosine"; }
};

/// Okapi BM25 with standard parameters. LengthPart is the denominator's
/// length normalization k1 * (1 - b + b * |d| / avgdl).
class Bm25Scorer final : public Scorer {
 public:
  struct Params {
    double k1 = 1.2;
    double b = 0.75;
  };

  explicit Bm25Scorer(double k1 = 1.2, double b = 0.75)
      : Scorer(Kind::kBm25), params_{k1, b} {}
  PreparedTerm PrepareTerm(const CollectionStats& stats, uint32_t df,
                           uint32_t qtf) const override;
  double LengthPart(const CollectionStats& stats,
                    uint32_t doc_length) const override {
    const double dl = static_cast<double>(doc_length);
    const double avgdl = stats.avg_doc_length;
    return params_.k1 * (1.0 - params_.b +
                         params_.b * (avgdl > 0.0 ? dl / avgdl : 1.0));
  }
  double ScorePosting(const PreparedTerm& term, double length_part,
                      uint32_t tf) const override {
    if (!term.active) return 0.0;
    const double denom = static_cast<double>(tf) + length_part;
    const double tf_part =
        static_cast<double>(tf) * (params_.k1 + 1.0) / denom;
    return term.term_weight * tf_part * term.qtf;
  }
  LengthKey length_key(const CollectionStats& stats) const override {
    return MakeLengthKey(params_.k1, params_.b, stats);
  }
  std::string Name() const override { return "bm25"; }

 private:
  Params params_;
};

/// Dirichlet-smoothed query likelihood (language modeling approach). The
/// collection language model comes from CollectionStats::total_tokens.
/// LengthPart is the document-length prior log(mu / (|d| + mu)).
class LmDirichletScorer final : public Scorer {
 public:
  explicit LmDirichletScorer(double mu = 1000.0);
  PreparedTerm PrepareTerm(const CollectionStats& stats, uint32_t df,
                           uint32_t qtf) const override;
  double LengthPart(const CollectionStats& stats,
                    uint32_t doc_length) const override {
    (void)stats;
    const double dl = static_cast<double>(doc_length);
    return std::log(mu_ / (dl + mu_));
  }
  double ScorePosting(const PreparedTerm& term, double length_part,
                      uint32_t tf) const override {
    (void)length_part;
    if (!term.active) return 0.0;
    // Rank-equivalent Dirichlet form: qtf * log(1 + tf / (mu * p(w|C)));
    // the per-document log(mu / (mu + |d|)) factor is added once in
    // Normalize (a harmless simplification: it drops the |q| coefficient,
    // which is constant within a query and only mildly re-weights the
    // document-length prior).
    return term.qtf *
           std::log(1.0 + static_cast<double>(tf) / term.term_weight);
  }
  double Normalize(double length_part, double accumulated) const override {
    return accumulated + length_part;
  }
  LengthKey length_key(const CollectionStats& stats) const override {
    return MakeLengthKey(mu_, 0.0, stats);
  }
  std::string Name() const override { return "lm-dirichlet"; }

 private:
  double mu_;
};

/// Calls `fn` with `scorer` as its concrete class: the one dispatch an
/// evaluation core pays per call, after which a template body over the
/// (final) class inlines LengthPart, ScorePosting and Normalize. A scorer
/// defined elsewhere arrives as the base class, so the same template body
/// serves it with virtual calls.
template <typename Fn>
decltype(auto) VisitScorer(const Scorer& scorer, Fn&& fn) {
  switch (scorer.kind()) {
    case Scorer::Kind::kTfIdfCosine:
      return fn(static_cast<const TfIdfCosineScorer&>(scorer));
    case Scorer::Kind::kBm25:
      return fn(static_cast<const Bm25Scorer&>(scorer));
    case Scorer::Kind::kLmDirichlet:
      return fn(static_cast<const LmDirichletScorer&>(scorer));
    case Scorer::Kind::kCustom:
      break;
  }
  return fn(scorer);
}

/// Factory helpers.
std::unique_ptr<Scorer> MakeTfIdfScorer();
std::unique_ptr<Scorer> MakeBm25Scorer(double k1 = 1.2, double b = 0.75);

}  // namespace toppriv::search

#endif  // TOPPRIV_SEARCH_SCORER_H_
