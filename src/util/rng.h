// Deterministic pseudo-random number generation for reproducible campaigns.
//
// CLEAR's reliability analysis relies on statistical fault-injection
// campaigns; every sampled (flip-flop, cycle) pair must be reproducible from
// a seed so that experiments, tests and benches are deterministic across
// runs and machines.  We use xoshiro256** (public domain, Blackman/Vigna)
// seeded through splitmix64.
#ifndef CLEAR_UTIL_RNG_H
#define CLEAR_UTIL_RNG_H

#include <cstdint>

namespace clear::util {

// splitmix64: used for seeding and for cheap stateless hashing.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Stateless hash combiner for deterministic "noise" (e.g., SP&R artifacts).
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return splitmix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0xC1EA5C1EA5ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t x = seed;
    for (auto& word : s_) {
      x = splitmix64(x);
      word = x;
    }
  }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound) without modulo bias: threshold
  // rejection, then modulo.  Draws below 2^64 mod bound are rejected; that
  // threshold is below bound, so it is computed only for such draws.
  std::uint64_t below(std::uint64_t bound) noexcept {
    if (bound <= 1) return 0;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= bound || r >= (0 - bound) % bound) return r % bound;
    }
  }

  // Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  bool bernoulli(double p) noexcept { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4] = {};
};

}  // namespace clear::util

#endif  // CLEAR_UTIL_RNG_H
