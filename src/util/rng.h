// Deterministic pseudo-random number generation for experiments.
//
// Every source of randomness in this repository flows through util::Rng so
// that a single 64-bit seed makes an entire experiment reproducible.  The
// engine is SplitMix64 (Steele et al., "Fast splittable pseudorandom number
// generators") — tiny, fast, and statistically solid for simulation use.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "util/check.h"

namespace car::util {

/// Deterministic 64-bit PRNG (SplitMix64). Satisfies
/// std::uniform_random_bit_generator so it can also drive <random>.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept
      : state_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound). Requires bound > 0; fails loudly (via
  /// CAR_CHECK) instead of wrapping.
  std::uint64_t next_below(std::uint64_t bound) {
    CAR_CHECK(bound > 0, "Rng::next_below: bound == 0");
    // Lemire's unbiased multiply-shift rejection method.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in the inclusive range [lo, hi].  An empty range
  /// (lo > hi) fails loudly instead of silently wrapping the span width.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) {
    CAR_CHECK_LE(lo, hi, "Rng::next_in: empty range");
    const auto span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    return lo + static_cast<std::int64_t>(next_below(span));
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool next_bool(double p = 0.5) noexcept { return next_double() < p; }

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    shuffle(std::span<T>(items));
  }

  /// Sample `count` distinct indices from [0, population) in random order.
  std::vector<std::size_t> sample_indices(std::size_t population,
                                          std::size_t count) {
    CAR_CHECK_LE(count, population, "Rng::sample_indices");
    std::vector<std::size_t> all(population);
    for (std::size_t i = 0; i < population; ++i) all[i] = i;
    // Partial Fisher–Yates: only the first `count` slots need to be drawn.
    for (std::size_t i = 0; i < count; ++i) {
      const auto j = i + static_cast<std::size_t>(next_below(population - i));
      std::swap(all[i], all[j]);
    }
    all.resize(count);
    return all;
  }

  /// Fill a byte buffer with random data (chunk payloads in tests/emulator).
  /// The bytes are the little-endian serialisation of successive draws on
  /// every host; a trailing partial word consumes one whole draw.
  void fill_bytes(std::span<std::uint8_t> out) noexcept {
    std::size_t i = 0;
    for (; i + 8 <= out.size(); i += 8) {
      const std::uint64_t v = (*this)();
      if constexpr (std::endian::native == std::endian::little) {
        // One word store instead of eight byte stores: several times the
        // fill rate, and the bytes are the same.
        std::memcpy(out.data() + i, &v, sizeof v);
      } else {
        for (std::size_t b = 0; b < 8; ++b) {
          out[i + b] = static_cast<std::uint8_t>(v >> (8 * b));
        }
      }
    }
    if (i < out.size()) {
      const std::uint64_t v = (*this)();
      for (std::size_t b = 0; i < out.size(); ++i, ++b) {
        out[i] = static_cast<std::uint8_t>(v >> (8 * b));
      }
    }
  }

  /// Derive an independent child stream (for parallel experiment arms).
  Rng split() noexcept { return Rng((*this)()); }

 private:
  std::uint64_t state_;
};

}  // namespace car::util
