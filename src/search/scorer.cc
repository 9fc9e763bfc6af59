#include "search/scorer.h"

#include <cmath>
#include <cstring>

#include "util/check.h"

namespace toppriv::search {

namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

LengthKey Scorer::MakeLengthKey(double p0, double p1,
                                const CollectionStats& stats) const {
  LengthKey key;
  key.cacheable = kind_ != Kind::kCustom;
  key.bits = {static_cast<uint64_t>(kind_), Bits(p0), Bits(p1),
              Bits(stats.avg_doc_length)};
  return key;
}

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

PreparedTerm Bm25Scorer::PrepareTerm(const CollectionStats& stats,
                                     uint32_t df, uint32_t qtf) const {
  PreparedTerm term;
  if (df == 0) return term;
  term.active = true;
  double n = static_cast<double>(stats.num_documents);
  term.term_weight =
      std::log(1.0 + (n - static_cast<double>(df) + 0.5) /
                         (static_cast<double>(df) + 0.5));
  term.qtf = static_cast<double>(qtf);
  return term;
}

LmDirichletScorer::LmDirichletScorer(double mu)
    : Scorer(Kind::kLmDirichlet), mu_(mu) {
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

std::unique_ptr<Scorer> MakeTfIdfScorer() {
  return std::make_unique<TfIdfCosineScorer>();
}

std::unique_ptr<Scorer> MakeBm25Scorer(double k1, double b) {
  return std::make_unique<Bm25Scorer>(k1, b);
}

}  // namespace toppriv::search
