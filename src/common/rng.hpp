// Deterministic random number generation.
//
// Every stochastic component in the library (virtual test chip, fault
// injection, Monte-Carlo device variation) draws from an explicitly
// seeded Rng so that every experiment is bit-reproducible.  The engine
// is xoshiro256++ seeded through SplitMix64; independent substreams are
// derived with Rng::fork(tag) so parallel structures (dies, cells,
// modules) get decorrelated streams without global coordination.
#pragma once

#include <cstdint>
#include <span>

namespace ntc {

/// SplitMix64 step; used for seeding and stream derivation.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256++ pseudo-random generator with distribution helpers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Raw 64 random bits.
  std::uint64_t next_u64();

  /// Bulk generation: fills `out` with exactly out.size() consecutive
  /// next_u64() draws, leaving the engine in the same state as that
  /// many scalar calls.  The guarantee is bit-exact stream identity —
  /// batched consumers (SoA flip-mask generation, the batched campaign
  /// engine) may interleave fill_u64 with scalar draws freely without
  /// perturbing any downstream seed-reproducible experiment.
  void fill_u64(std::span<std::uint64_t> out);

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_u64(std::uint64_t n);

  /// Standard normal deviate (Box-Muller with caching).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double sigma);

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Poisson-distributed count with the given mean (inversion for small
  /// lambda, normal approximation above 64).
  std::uint64_t poisson(double lambda);

  /// Derive an independent substream. Deterministic in (this seed, tag).
  Rng fork(std::uint64_t tag) const;

  /// The seed this engine was constructed with: together with the draw
  /// history it identifies the stream, so a consumer can restart a
  /// fork's stream from it (e.g. a retention fingerprint's deviates).
  std::uint64_t seed() const { return seed_; }

  /// Conservative upper bound on |normal()|: Box-Muller over 53-bit
  /// uniforms caps the radius at sqrt(-2 ln 2^-53) ~ 8.5716, so no
  /// deviate this class can ever produce exceeds the returned value
  /// (which pads that bound for the rounding of log/sqrt/sin/cos and a
  /// later float cast).  Lets consumers prove "no cell beyond k sigma"
  /// without drawing the population.
  static double max_normal_magnitude();

 private:
  std::uint64_t s_[4];
  std::uint64_t seed_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace ntc
