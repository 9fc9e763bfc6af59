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
  TOPPRIV_CHECK_LE(num_topics, 65535u);
  const size_t len = tokens.size();
  const auto topic_count = static_cast<uint32_t>(num_topics);

  util::SplitMix64 rng(options_.seed ^ HashTerms(tokens));

  // Smoothing bucket: smoothing[i*T + t] = sum_{s <= t} alpha * Phi(s, w_i).
  // It does not depend on the counts, so it is built once per call; the
  // topic-outer loop runs the L prefix sums as independent chains.
  std::vector<double>& smoothing = workspace->smoothing;
  smoothing.resize(len * num_topics);
  for (size_t t = 0; t < num_topics; ++t) {
    for (size_t i = 0; i < len; ++i) {
      const double mass =
          alpha * model_.Phi(static_cast<TopicId>(t), tokens[i]);
      smoothing[i * num_topics + t] =
          t == 0 ? mass : smoothing[i * num_topics + t - 1] + mass;
    }
  }

  // Document bucket: topics[0..live) are the topics with counts > 0, and
  // position[t] is t's slot there, so a count that reaches or leaves zero
  // costs O(1).
  std::vector<uint32_t>& counts = workspace->counts;
  counts.assign(num_topics, 0);
  std::vector<uint16_t>& topics = workspace->topics;
  topics.resize(num_topics);
  std::vector<uint16_t>& position = workspace->position;
  position.resize(num_topics);
  size_t live = 0;
  std::vector<uint16_t>& z = workspace->z;
  z.resize(len);
  for (size_t i = 0; i < len; ++i) {
    const auto t = static_cast<uint16_t>(rng.UniformInt(topic_count));
    z[i] = t;
    if (counts[t]++ == 0) {
      position[t] = static_cast<uint16_t>(live);
      topics[live++] = t;
    }
  }

  std::vector<double>& doc_cdf = workspace->doc_cdf;
  doc_cdf.resize(std::min(len, num_topics));
  std::vector<uint64_t>& count_sums = workspace->count_sums;
  count_sums.assign(num_topics, 0);

  for (size_t iter = 0; iter < options_.iterations; ++iter) {
    for (size_t i = 0; i < len; ++i) {
      const text::TermId w = tokens[i];
      uint16_t t = z[i];
      if (--counts[t] == 0) {
        const uint16_t moved = topics[--live];
        topics[position[t]] = moved;
        position[moved] = position[t];
      }
      // (n_t + alpha) * Phi(t, w) = n_t * Phi(t, w) + alpha * Phi(t, w):
      // pick a bucket by its mass, then a topic inside it.
      double doc_mass = 0.0;
      for (size_t k = 0; k < live; ++k) {
        const uint16_t s = topics[k];
        doc_mass += static_cast<double>(counts[s]) * model_.Phi(s, w);
        doc_cdf[k] = doc_mass;
      }
      const double* smooth = smoothing.data() + i * num_topics;
      const double total = doc_mass + smooth[num_topics - 1];
      if (total <= 0.0) {
        t = static_cast<uint16_t>(rng.UniformInt(topic_count));
      } else {
        const double u = rng.Uniform() * total;
        if (u < doc_mass) {
          // doc_cdf[live - 1] == doc_mass > u, so the scan stops in range.
          size_t k = 0;
          while (doc_cdf[k] <= u) ++k;
          t = topics[k];
        } else {
          // The first t with smooth[t] > r, else T-1, as a branch-free
          // lower bound: the answer stays within [lo, lo + n] and each
          // step halves n with a conditional move instead of a
          // mispredicted jump.
          const double r = u - doc_mass;
          size_t lo = 0;
          size_t n = num_topics;
          while (n > 1) {
            const size_t half = n / 2;
            lo += smooth[lo + half] <= r ? half : 0;
            n -= half;
          }
          lo += smooth[lo] <= r ? 1 : 0;
          t = static_cast<uint16_t>(std::min(lo, num_topics - 1));
        }
      }
      z[i] = t;
      if (counts[t]++ == 0) {
        position[t] = static_cast<uint16_t>(live);
        topics[live++] = t;
      }
    }
    if (iter >= options_.burn_in) {
      for (size_t k = 0; k < live; ++k) {
        count_sums[topics[k]] += counts[topics[k]];
      }
    }
  }

  // The posterior mean of (n_t + alpha) / (L + T*alpha) over the kept
  // sweeps, from integer count sums: alpha / denom plus a non-negative
  // term, so no entry falls below alpha / (L + T*alpha).
  const double denom =
      static_cast<double>(len) + static_cast<double>(num_topics) * alpha;
  const double floor = alpha / denom;
  const double scale =
      1.0 / (static_cast<double>(options_.iterations - options_.burn_in) *
             denom);
  std::vector<double> posterior(num_topics);
  for (size_t t = 0; t < num_topics; ++t) {
    posterior[t] = floor + static_cast<double>(count_sums[t]) * scale;
  }
  // One flush per inference call, after the sampler is done: the metrics
  // layer must never interleave with (let alone read) the RNG stream.
  TOPPRIV_COUNTER_INC("lda.inferences");
  TOPPRIV_COUNTER_ADD("lda.gibbs_iterations", options_.iterations);
  TOPPRIV_COUNTER_ADD("lda.gibbs_token_sweeps", options_.iterations * len);
  return posterior;
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
