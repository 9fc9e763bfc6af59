// The exact fold-in Gibbs sampler: the straightforward form of
// LdaInferencer::InferQuery before its sparse-bucket rewrite. Per token and
// sweep it builds the full T-entry CDF of (n_t + alpha) * Phi(t, w) and
// draws from it with util::Rng (a Mersenne Twister). The library sampler
// draws from the same conditional with other random numbers, so its
// posteriors differ in the bits; the distributional tests compare it with
// this reference, and golden_test pins this reference's bits.
#ifndef TOPPRIV_TESTS_REFERENCE_SAMPLER_H_
#define TOPPRIV_TESTS_REFERENCE_SAMPLER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "text/vocabulary.h"
#include "topicmodel/inference.h"
#include "topicmodel/lda_model.h"
#include "util/hash.h"
#include "util/rng.h"

namespace toppriv::testing {

/// Pr(t|q) by the exact sampler: in-vocabulary tokens only, uniform for an
/// effectively empty query, seeded with options.seed ^ FNV-1a(tokens).
inline std::vector<double> ReferenceInferQuery(
    const topicmodel::LdaModel& model,
    const topicmodel::InferenceOptions& options,
    const std::vector<text::TermId>& terms) {
  const size_t num_topics = model.num_topics();
  const double alpha = model.alpha();
  std::vector<text::TermId> tokens;
  for (text::TermId t : terms) {
    if (t < model.vocab_size()) tokens.push_back(t);
  }
  if (tokens.empty()) {
    return std::vector<double>(num_topics,
                               1.0 / static_cast<double>(num_topics));
  }
  uint64_t hash = util::kFnv1aOffsetBasis;
  for (text::TermId t : tokens) hash = util::Fnv1aStep(hash, t);
  util::Rng rng(options.seed ^ hash);

  std::vector<uint32_t> counts(num_topics, 0);
  std::vector<size_t> z(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    z[i] = rng.UniformInt(num_topics);
    ++counts[z[i]];
  }
  std::vector<double> cdf(num_topics);
  std::vector<double> accum(num_topics, 0.0);
  size_t samples = 0;
  for (size_t iter = 0; iter < options.iterations; ++iter) {
    for (size_t i = 0; i < tokens.size(); ++i) {
      --counts[z[i]];
      double total = 0.0;
      for (size_t t = 0; t < num_topics; ++t) {
        total += (static_cast<double>(counts[t]) + alpha) *
                 model.Phi(static_cast<topicmodel::TopicId>(t), tokens[i]);
        cdf[t] = total;
      }
      if (total <= 0.0) {
        z[i] = rng.UniformInt(num_topics);
      } else {
        // The first t with cdf[t] > r, else T-1.
        const double r = rng.Uniform() * total;
        const size_t t = static_cast<size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), r) - cdf.begin());
        z[i] = std::min(t, num_topics - 1);
      }
      ++counts[z[i]];
    }
    if (iter >= options.burn_in) {
      ++samples;
      const double denom = static_cast<double>(tokens.size()) +
                           static_cast<double>(num_topics) * alpha;
      for (size_t t = 0; t < num_topics; ++t) {
        accum[t] += (static_cast<double>(counts[t]) + alpha) / denom;
      }
    }
  }
  for (double& v : accum) v /= static_cast<double>(samples);
  return accum;
}

}  // namespace toppriv::testing

#endif  // TOPPRIV_TESTS_REFERENCE_SAMPLER_H_
