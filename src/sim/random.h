// Deterministic random-number utilities.
//
// Experiments must be repeatable (Section 3.4 of the paper: strict resource
// guarantees exist "to ensure repeatability of the experiments"), so every
// stochastic component draws from an explicitly seeded generator owned by
// the experiment, never from global state.
//
// The streams are defined by this file plus std::mt19937_64, whose output
// the C++ standard fixes bit for bit.  The distributions are written out
// here rather than taken from <random>, whose algorithms the standard
// leaves to each library, so the same seed draws the same values under
// any conforming standard library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>

#include "sim/time.h"

namespace vini::sim {

/// Seeded pseudo-random source with the distributions the substrate needs.
class Random {
 public:
  explicit Random(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1): the engine's top 53 bits times 2^-53.
  double uniform01() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

  /// Exponential with the given mean (> 0), by inversion; 1 - u is exact
  /// on the 53-bit grid and never 0.
  double exponential(double mean) {
    return -mean * std::log(1.0 - uniform01());
  }

  /// Normal with the given mean and standard deviation, by Marsaglia's
  /// polar method.  Each accepted pair yields two standard normals; the
  /// second is kept as a spare and returned by the next call.
  double normal(double mean, double stddev) {
    if (has_spare_) {
      has_spare_ = false;
      return mean + stddev * spare_;
    }
    double x = 0.0, y = 0.0, s = 0.0;
    do {
      x = 2.0 * uniform01() - 1.0;
      y = 2.0 * uniform01() - 1.0;
      s = x * x + y * y;
    } while (s >= 1.0 || s == 0.0);
    const double scale = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = y * scale;
    has_spare_ = true;
    return mean + stddev * (x * scale);
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

  /// Derive an independent child generator (stable given call order),
  /// seeded from one engine draw; the child starts with no spare.
  Random fork() { return Random(engine_()); }

 private:
  std::mt19937_64 engine_;
  double spare_ = 0.0;  // the polar method's second value, while has_spare_
  bool has_spare_ = false;
};

/// Capped exponential backoff with symmetric jitter: retry `attempt`
/// (1 for the first) waits initial * multiplier^(attempt - 1), capped at
/// `max`, scaled by a uniform factor in [1 - jitter, 1 + jitter].
struct Backoff {
  Duration initial = kSecond;
  double multiplier = 2.0;
  Duration max = 60 * kSecond;
  double jitter = 0.25;

  /// The (nonnegative) delay before retry `attempt`.  Draws one uniform
  /// from `random` only when jitter > 0 and `random` is non-null.
  Duration delay(int attempt, Random* random) const {
    double d = static_cast<double>(initial);
    for (int i = 1; i < attempt; ++i) d *= multiplier;
    d = std::min(d, static_cast<double>(max));
    if (jitter > 0 && random != nullptr) {
      d *= 1.0 + jitter * (2.0 * random->uniform01() - 1.0);
    }
    return static_cast<Duration>(std::max(d, 0.0));
  }
};

}  // namespace vini::sim
