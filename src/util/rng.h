// Deterministic pseudo-random number generation for the simulation.
//
// Everything in this repository that needs randomness (site generation, page
// dynamics, latency sampling, think time) draws from a seeded Pcg32 so every
// experiment is exactly reproducible from its seed. We implement PCG-XSH-RR
// 64/32 (O'Neill, 2014) directly: it is tiny, fast, and statistically far
// better than std::minstd_rand while being cheaper than std::mt19937.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

namespace cookiepicker::util {

class Pcg32 {
 public:
  using result_type = std::uint32_t;

  // Streams with identical seeds but distinct sequence selectors are
  // statistically independent; we use that to give every site / noise source
  // its own substream.
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t sequence = 0xda3e39cb94b95bdbULL) {
    state_ = 0U;
    inc_ = (sequence << 1U) | 1U;
    next();
    state_ += seed;
    next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  std::uint32_t next() {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18U) ^ old) >> 27U);
    const auto rot = static_cast<std::uint32_t>(old >> 59U);
    return (xorshifted >> rot) | (xorshifted << ((32U - rot) & 31U));
  }

  // Unbiased integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint32_t uniform(std::uint32_t lo, std::uint32_t hi);

  // Uniform double in [0, 1).
  double uniform01();

  // Standard normal via Box-Muller (no caching; simplicity over speed).
  double normal(double mean = 0.0, double stddev = 1.0);

  // Log-normal: exp(N(mu, sigma)). Used by the latency and think-time models.
  double logNormal(double mu, double sigma);

  // True with probability p (clamped to [0,1]).
  bool chance(double p);

  // Uniformly chosen element of a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[uniform(0, static_cast<std::uint32_t>(items.size() - 1))];
  }

  // Derive a child generator whose stream is independent of this one.
  // `tag` ties the substream to a stable identity (e.g. a domain name).
  Pcg32 fork(std::string_view tag);

 private:
  std::uint64_t state_ = 0;
  std::uint64_t inc_ = 0;
};

// FNV-1a 64-bit hash; used to derive stable per-name RNG substreams, shard
// keys and WAL checksums, and to fingerprint serialized pages in tests —
// everything persisted, keyed or pinned. Snapshot text hashes use the
// in-memory util::textHash64 (text_hash.h) instead.
std::uint64_t fnv1a64(std::string_view text);

}  // namespace cookiepicker::util
