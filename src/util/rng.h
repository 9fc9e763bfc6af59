// Deterministic random number generation used throughout the library.
//
// Every stochastic component (corpus generation, Gibbs sampling, ghost-query
// generation) draws from an explicitly-seeded Rng so that experiments are
// reproducible run-to-run. Rng::Fork derives independent child streams so
// that adding randomness in one module does not perturb another.
#ifndef TOPPRIV_UTIL_RNG_H_
#define TOPPRIV_UTIL_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace toppriv::util {

/// Seedable pseudo-random generator with the sampling primitives needed by
/// the corpus generator, the LDA trainer and the TopPriv client.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed), seed_(seed) {}

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  /// Seed this generator was constructed with.
  uint64_t seed() const { return seed_; }

  /// Derives an independent child stream; `stream` distinguishes siblings.
  Rng Fork(uint64_t stream) const;

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Poisson draw with the given mean (> 0).
  int Poisson(double mean);

  /// Samples an index from an unnormalized non-negative weight vector.
  /// Requires at least one strictly positive weight.
  size_t Discrete(const std::vector<double>& weights);

  /// Samples an index from a cumulative-weight vector (ascending, last > 0).
  /// O(log n); used by hot loops that reuse the same distribution.
  size_t DiscreteFromCdf(const std::vector<double>& cdf);

  /// Gamma(shape, 1) draw; shape > 0 (Marsaglia-Tsang).
  double Gamma(double shape);

  /// Dirichlet draw with symmetric concentration `alpha` over `k` categories.
  std::vector<double> DirichletSymmetric(double alpha, size_t k);

  /// Dirichlet draw with the given concentration vector.
  std::vector<double> Dirichlet(const std::vector<double>& alpha);

  /// Zipf-like draw over [0, n) with exponent s (larger s = more skew).
  /// Implemented via inverse-CDF over precomputed weights is the caller's
  /// job for hot paths; this helper is for setup code.
  size_t Zipf(size_t n, double s);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = UniformInt(static_cast<uint64_t>(i) + 1);
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Access to the raw engine for std:: distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  uint64_t seed_;
};

/// SplitMix64 (Steele, Lea & Flood, OOPSLA 2014; the seeding generator of
/// Blackman & Vigna's xoshiro family): one word of state, so seeding costs
/// nothing. Rng seeds a 312-word Mersenne Twister, which is too costly for a
/// fresh stream per call. Used by the fold-in sampler, which seeds one
/// stream per inference.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1) from the top 53 bits.
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Integer in [0, n) by a multiply-shift of the top 32 bits, for
  /// 0 < n < 2^32; the bias is below n / 2^32.
  uint32_t UniformInt(uint32_t n) {
    return static_cast<uint32_t>(((Next() >> 32) * n) >> 32);
  }

 private:
  uint64_t state_;
};

/// Builds a cumulative distribution from unnormalized weights, for use with
/// Rng::DiscreteFromCdf. Returns an empty vector if all weights are zero.
std::vector<double> BuildCdf(const std::vector<double>& weights);

}  // namespace toppriv::util

#endif  // TOPPRIV_UTIL_RNG_H_
