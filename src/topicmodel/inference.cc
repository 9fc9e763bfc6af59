#include "topicmodel/inference.h"

#include <algorithm>

#include "util/check.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace toppriv::topicmodel {

namespace {

// FNV-1a over the term ids, so identical queries share an RNG stream.
uint64_t HashTerms(const std::vector<text::TermId>& terms) {
  uint64_t h = util::kFnv1aOffsetBasis;
  for (text::TermId t : terms) h = util::Fnv1aStep(h, t);
  return h;
}

}  // namespace

LdaInferencer::LdaInferencer(const LdaModel& model, InferenceOptions options)
    : model_(model), options_(options) {
  TOPPRIV_CHECK_GT(options_.iterations, 0u);
  TOPPRIV_CHECK_LT(options_.burn_in, options_.iterations);
}

std::vector<double> LdaInferencer::InferQuery(
    const std::vector<text::TermId>& terms) const {
  static thread_local InferenceWorkspace workspace;
  return InferQuery(terms, &workspace);
}

std::vector<double> LdaInferencer::InferQuery(
    const std::vector<text::TermId>& terms,
    InferenceWorkspace* workspace) const {
  const size_t num_topics = model_.num_topics();
  const double alpha = model_.alpha();

  // Keep only in-vocabulary tokens.
  std::vector<text::TermId>& tokens = workspace->tokens;
  tokens.clear();
  tokens.reserve(terms.size());
  for (text::TermId t : terms) {
    if (t < model_.vocab_size()) tokens.push_back(t);
  }
  if (tokens.empty()) {
    return std::vector<double>(num_topics, 1.0 / static_cast<double>(num_topics));
  }

  util::Rng rng(options_.seed ^ HashTerms(tokens));

  std::vector<uint32_t>& counts = workspace->counts;
  counts.assign(num_topics, 0);
  std::vector<uint16_t>& z = workspace->z;
  z.resize(tokens.size());
  TOPPRIV_CHECK_LE(num_topics, 65535u);

  // Random init.
  for (size_t i = 0; i < tokens.size(); ++i) {
    uint16_t t = static_cast<uint16_t>(rng.UniformInt(num_topics));
    z[i] = t;
    ++counts[t];
  }

  std::vector<double>& column = workspace->column;
  column.resize(tokens.size() * num_topics);
  for (size_t i = 0; i < tokens.size(); ++i) {
    double* col = column.data() + i * num_topics;
    for (size_t t = 0; t < num_topics; ++t) {
      col[t] = model_.Phi(static_cast<TopicId>(t), tokens[i]);
    }
  }
  std::vector<double>& weight = workspace->weight;
  weight.resize(num_topics);
  for (size_t t = 0; t < num_topics; ++t) {
    weight[t] = static_cast<double>(counts[t]) + alpha;
  }

  std::vector<double>& cdf = workspace->cdf;
  cdf.resize(num_topics);
  std::vector<double>& accum = workspace->accum;
  accum.assign(num_topics, 0.0);
  size_t samples = 0;

  for (size_t iter = 0; iter < options_.iterations; ++iter) {
    for (size_t i = 0; i < tokens.size(); ++i) {
      uint16_t old_t = z[i];
      --counts[old_t];
      weight[old_t] = static_cast<double>(counts[old_t]) + alpha;
      const double* col = column.data() + i * num_topics;
      double total = 0.0;
      for (size_t t = 0; t < num_topics; ++t) {
        total += weight[t] * col[t];
        cdf[t] = total;
      }
      uint16_t new_t;
      if (total <= 0.0) {
        new_t = static_cast<uint16_t>(rng.UniformInt(num_topics));
      } else {
        // The first t with cdf[t] > r, else T-1, as a branch-free lower
        // bound: the answer stays within [lo, lo + n] and each step halves
        // n with a conditional move instead of a mispredicted jump. cdf is
        // non-decreasing, so this is the index a branchy binary search
        // over [0, T-1] returns.
        const double r = rng.Uniform() * total;
        size_t lo = 0;
        size_t n = num_topics;
        while (n > 1) {
          const size_t half = n / 2;
          lo += cdf[lo + half] <= r ? half : 0;
          n -= half;
        }
        lo += cdf[lo] <= r ? 1 : 0;
        new_t = static_cast<uint16_t>(std::min(lo, num_topics - 1));
      }
      z[i] = new_t;
      ++counts[new_t];
      weight[new_t] = static_cast<double>(counts[new_t]) + alpha;
    }
    if (iter >= options_.burn_in) {
      ++samples;
      double denom = static_cast<double>(tokens.size()) +
                     static_cast<double>(num_topics) * alpha;
      for (size_t t = 0; t < num_topics; ++t) {
        accum[t] += weight[t] / denom;
      }
    }
  }

  TOPPRIV_CHECK_GT(samples, 0u);
  for (double& v : accum) v /= static_cast<double>(samples);
  // One flush per inference call, after the sampler is done: the metrics
  // layer must never interleave with (let alone read) the RNG stream.
  TOPPRIV_COUNTER_INC("lda.inferences");
  TOPPRIV_COUNTER_ADD("lda.gibbs_iterations", options_.iterations);
  TOPPRIV_COUNTER_ADD("lda.gibbs_token_sweeps",
                      options_.iterations * tokens.size());
  return accum;
}

std::vector<double> LdaInferencer::CyclePosterior(
    const std::vector<std::vector<double>>& per_query_posteriors) {
  TOPPRIV_CHECK(!per_query_posteriors.empty());
  const size_t num_topics = per_query_posteriors.front().size();
  std::vector<double> out(num_topics, 0.0);
  for (const auto& posterior : per_query_posteriors) {
    TOPPRIV_CHECK_EQ(posterior.size(), num_topics);
    for (size_t t = 0; t < num_topics; ++t) out[t] += posterior[t];
  }
  const double inv = 1.0 / static_cast<double>(per_query_posteriors.size());
  for (double& v : out) v *= inv;
  return out;
}

}  // namespace toppriv::topicmodel
