// Deterministic pseudo-random source shared by simulator components.
#pragma once

#include <cstdint>
#include <random>
#include <stdexcept>

namespace tagwatch::util {

/// Seedable random number generator wrapping std::mt19937_64 with the
/// distributions the simulator needs.  Every stochastic component takes an
/// Rng& so whole experiments replay bit-identically from one seed.
class Rng {
 public:
  /// Seed of a default-constructed Rng.
  static constexpr std::uint64_t kDefaultSeed = 0x5eed5eed;

  explicit Rng(std::uint64_t seed = kDefaultSeed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive).
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Uniform integer in [0, n) — e.g. a Gen2 slot counter draw for frame
  /// length n.
  std::uint32_t below(std::uint32_t n) {
    return n <= 1 ? 0u
                  : std::uniform_int_distribution<std::uint32_t>(
                        0, n - 1)(engine_);
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation.  A stddev of 0
  /// returns the mean without drawing; a negative one throws
  /// std::invalid_argument.
  double normal(double mean = 0.0, double stddev = 1.0) {
    if (stddev == 0.0) return mean;
    if (stddev < 0.0) {
      throw std::invalid_argument("Rng::normal: stddev must be >= 0");
    }
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return std::bernoulli_distribution(p)(engine_); }

  /// Exponential inter-arrival time with the given rate (events per unit).
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Derives an independent child generator; use to give subsystems their
  /// own streams so adding draws in one does not perturb another.
  Rng fork() { return Rng(engine_()); }

  std::mt19937_64& engine() noexcept { return engine_; }

 private:
  // The constructor's mem-initializer always wins; this default only
  // keeps the declaration visibly seeded.
  std::mt19937_64 engine_{kDefaultSeed};
};

}  // namespace tagwatch::util
