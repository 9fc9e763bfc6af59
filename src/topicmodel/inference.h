// Query-time LDA inference: Pr(t|q) for unseen word bags, and the cycle
// posterior of paper Eq. 2.
//
// Inference folds the query into the trained model by Gibbs-sampling topic
// assignments for the query tokens with phi held fixed — the same
// "inference mode" the paper uses GibbsLDA++ for.
//
// The sampler splits each token's conditional into two buckets, after
// SparseLDA (Yao, Mimno & McCallum, KDD 2009):
//   (n_t + alpha) * Phi(t, w) = alpha * Phi(t, w) + n_t * Phi(t, w).
// The smoothing bucket does not depend on the counts, so its CDF is built
// once per call; the document bucket has at most L nonzero topics. A draw
// costs O(L + log T) instead of a T-long prefix sum. The random stream is
// SplitMix64, seeded from the options' seed and the query's terms, so a
// posterior is a pure function of (model, options, terms). The draws
// differ from a straightforward full-CDF sampler's, the distribution does
// not: tests/reference_sampler.h keeps that sampler, and topicmodel_test
// holds this one within the reference's own seed-to-seed spread.
#ifndef TOPPRIV_TOPICMODEL_INFERENCE_H_
#define TOPPRIV_TOPICMODEL_INFERENCE_H_

#include <cstdint>
#include <vector>

#include "text/vocabulary.h"
#include "topicmodel/lda_model.h"

namespace toppriv::topicmodel {

/// Inference knobs.
struct InferenceOptions {
  /// Gibbs sweeps over the query tokens.
  size_t iterations = 30;
  /// Initial sweeps discarded before averaging.
  size_t burn_in = 10;
  /// Base seed; combined with a hash of the query so that the same query
  /// always yields the same posterior (deterministic, thread-compatible).
  uint64_t seed = 11;
};

/// Reusable Gibbs scratch buffers for InferQuery. On the serving hot path
/// (one inference per candidate ghost) allocator traffic would dominate,
/// so callers in a loop keep a workspace alive across calls. Every buffer
/// is rewritten before it is read, so reuse carries no state between
/// calls. Not thread-safe: use one workspace per thread (the
/// workspace-less InferQuery overload does exactly that).
struct InferenceWorkspace {
  std::vector<text::TermId> tokens;
  std::vector<uint32_t> counts;
  std::vector<uint16_t> z;
  /// Token-major smoothing CDFs: smoothing[i*T + t] is the prefix sum of
  /// alpha * Phi(s, tokens[i]) over s <= t.
  std::vector<double> smoothing;
  /// The topics with a nonzero count, in slots [0, live), and each such
  /// topic's slot.
  std::vector<uint16_t> topics;
  std::vector<uint16_t> position;
  /// Running sums of counts[t] * Phi(t, w) over the live topics.
  std::vector<double> doc_cdf;
  /// Per-topic counts summed over the kept sweeps.
  std::vector<uint64_t> count_sums;
};

/// Fold-in Gibbs inferencer over a fixed trained model.
class LdaInferencer {
 public:
  /// The inferencer borrows `model`, which must outlive it.
  explicit LdaInferencer(const LdaModel& model, InferenceOptions options = {});

  /// Posterior Pr(t|q) for a query given as a bag of term ids. Unknown ids
  /// (>= vocab_size) are ignored; an effectively-empty query returns the
  /// uniform distribution (the symmetric-alpha posterior). Uses a
  /// thread-local workspace, so it is safe to call concurrently.
  std::vector<double> InferQuery(const std::vector<text::TermId>& terms) const;

  /// Same, reusing the caller's scratch buffers (identical result).
  std::vector<double> InferQuery(const std::vector<text::TermId>& terms,
                                 InferenceWorkspace* workspace) const;

  /// Paper Eq. 2: Pr(t|{q1..qv}) = (1/v) * sum_i Pr(t|qi), treating every
  /// query in the cycle as equally likely to be the genuine one.
  static std::vector<double> CyclePosterior(
      const std::vector<std::vector<double>>& per_query_posteriors);

  const LdaModel& model() const { return model_; }
  const InferenceOptions& options() const { return options_; }

 private:
  const LdaModel& model_;
  InferenceOptions options_;
};

}  // namespace toppriv::topicmodel

#endif  // TOPPRIV_TOPICMODEL_INFERENCE_H_
