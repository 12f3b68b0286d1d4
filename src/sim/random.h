// Deterministic random-number utilities.
//
// Experiments must be repeatable (Section 3.4 of the paper: strict resource
// guarantees exist "to ensure repeatability of the experiments"), so every
// stochastic component draws from an explicitly seeded generator owned by
// the experiment, never from global state.
#pragma once

#include <cstdint>
#include <random>

#include "sim/time.h"

namespace vini::sim {

/// Seeded pseudo-random source with the distributions the substrate needs.
class Random {
 public:
  explicit Random(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform01() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponential with the given mean (> 0).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p) { return uniform01() < p; }

  /// Uniform duration in [lo, hi).
  Duration uniformDuration(Duration lo, Duration hi) {
    if (hi <= lo) return lo;
    return lo + static_cast<Duration>(uniform01() * static_cast<double>(hi - lo));
  }

  /// Exponential duration with the given mean, optionally capped.
  Duration exponentialDuration(Duration mean, Duration cap = -1) {
    auto d = static_cast<Duration>(exponential(static_cast<double>(mean)));
    if (cap >= 0 && d > cap) d = cap;
    return d;
  }

  /// Derive an independent child generator (stable given call order).
  Random fork() { return Random(engine_()); }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace vini::sim
