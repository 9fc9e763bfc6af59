// Query-time LDA inference: Pr(t|q) for unseen word bags, and the cycle
// posterior of paper Eq. 2.
//
// Inference folds the query into the trained model by Gibbs-sampling topic
// assignments for the query tokens with phi held fixed — the same
// "inference mode" the paper uses GibbsLDA++ for.
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

/// Reusable Gibbs scratch buffers for InferQuery. One inference needs
/// seven vectors; on the serving hot path (one inference per candidate
/// ghost) that allocator traffic dominates, so callers in a loop keep a
/// workspace alive across calls. Every buffer is fully rewritten before it
/// is read, so reuse carries no state between calls. Not thread-safe: use
/// one workspace per thread (the workspace-less InferQuery overload does
/// exactly that).
///
/// `column` and `weight` take the loop-invariant work out of the sampler's
/// inner loop, which is bound by the serial `total += p` prefix sum: the
/// strided float Phi(t, w) reads are gathered into doubles ONCE per call
/// (not once per sweep), and the `counts[t] + alpha` conversions are kept
/// current at the two topics a token's resampling changes. (A word-major
/// copy of Phi that still converted inside every sweep changed only the
/// layout, which is not the bottleneck, and measured 0.79-1.04x.) Each
/// product `weight[t] * column[i*T + t]` is the exact double the direct
/// expression computes, in the same order, so results are bit-identical.
struct InferenceWorkspace {
  std::vector<text::TermId> tokens;
  std::vector<uint32_t> counts;
  std::vector<uint16_t> z;
  /// Token-major Phi columns: column[i*T + t] = Phi(t, tokens[i]).
  std::vector<double> column;
  /// weight[t] = double(counts[t]) + alpha.
  std::vector<double> weight;
  std::vector<double> cdf;
  std::vector<double> accum;
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
