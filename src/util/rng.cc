#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace toppriv::util {

namespace {

// The first SplitMix64 output of seed `z`; decorrelates forked seeds.
uint64_t Mix(uint64_t z) { return SplitMix64(z).Next(); }

}  // namespace

Rng Rng::Fork(uint64_t stream) const {
  return Rng(Mix(seed_ ^ Mix(stream + 0x51eed5u)));
}

double Rng::Uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::Uniform(double lo, double hi) {
  TOPPRIV_DCHECK(lo <= hi);
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

uint64_t Rng::UniformInt(uint64_t n) {
  TOPPRIV_CHECK_GT(n, 0u);
  return std::uniform_int_distribution<uint64_t>(0, n - 1)(engine_);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  TOPPRIV_CHECK_LE(lo, hi);
  return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::bernoulli_distribution(p)(engine_);
}

double Rng::Gaussian(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

int Rng::Poisson(double mean) {
  TOPPRIV_CHECK_GT(mean, 0.0);
  return std::poisson_distribution<int>(mean)(engine_);
}

size_t Rng::Discrete(const std::vector<double>& weights) {
  TOPPRIV_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    TOPPRIV_DCHECK(w >= 0.0);
    total += w;
  }
  TOPPRIV_CHECK_GT(total, 0.0);
  double r = Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  // Floating-point underflow at the boundary: return the last positive entry.
  for (size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0.0) return i - 1;
  }
  return weights.size() - 1;
}

size_t Rng::DiscreteFromCdf(const std::vector<double>& cdf) {
  TOPPRIV_CHECK(!cdf.empty());
  double total = cdf.back();
  TOPPRIV_CHECK_GT(total, 0.0);
  double r = Uniform() * total;
  auto it = std::upper_bound(cdf.begin(), cdf.end(), r);
  if (it == cdf.end()) --it;
  return static_cast<size_t>(it - cdf.begin());
}

double Rng::Gamma(double shape) {
  TOPPRIV_CHECK_GT(shape, 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 then scale back (Marsaglia-Tsang trick).
    double u = Uniform();
    while (u <= 0.0) u = Uniform();
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = Gaussian(0.0, 1.0);
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    double u = Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

std::vector<double> Rng::DirichletSymmetric(double alpha, size_t k) {
  return Dirichlet(std::vector<double>(k, alpha));
}

std::vector<double> Rng::Dirichlet(const std::vector<double>& alpha) {
  TOPPRIV_CHECK(!alpha.empty());
  std::vector<double> out(alpha.size());
  double sum = 0.0;
  for (size_t i = 0; i < alpha.size(); ++i) {
    out[i] = Gamma(alpha[i]);
    sum += out[i];
  }
  if (sum <= 0.0) {
    // Degenerate draw (can happen for tiny alpha): fall back to one-hot.
    std::fill(out.begin(), out.end(), 0.0);
    out[UniformInt(out.size())] = 1.0;
    return out;
  }
  for (double& v : out) v /= sum;
  return out;
}

size_t Rng::Zipf(size_t n, double s) {
  TOPPRIV_CHECK_GT(n, 0u);
  // Rejection-free inverse-CDF on the fly; fine for setup-time use.
  double total = 0.0;
  for (size_t i = 1; i <= n; ++i) total += 1.0 / std::pow(double(i), s);
  double r = Uniform() * total;
  double acc = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(double(i), s);
    if (r < acc) return i - 1;
  }
  return n - 1;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  TOPPRIV_CHECK_LE(k, n);
  // Partial Fisher-Yates over an index vector; O(n) setup, O(k) swaps.
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + UniformInt(static_cast<uint64_t>(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

std::vector<double> BuildCdf(const std::vector<double>& weights) {
  std::vector<double> cdf;
  cdf.reserve(weights.size());
  double acc = 0.0;
  for (double w : weights) {
    acc += (w > 0.0 ? w : 0.0);
    cdf.push_back(acc);
  }
  if (acc <= 0.0) cdf.clear();
  return cdf;
}

}  // namespace toppriv::util
