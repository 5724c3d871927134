// Word-at-a-time 64-bit hash of snapshot text.
//
// dom::TreeSnapshot stores one hash per text row: the identity CVCE's
// (context, text) features and the attribution row fingerprint compare.
// FNV-1a walks one byte per multiply; this hash takes eight bytes per step
// (a 64×64→128-bit multiply folded to 64 bits, wyhash-style), reads short
// tails with at most two loads, and ends with the murmur3 avalanche
// finalizer so every input bit reaches every output bit.
//
// The values are an in-memory identity, like interned symbol IDs: they
// depend on the host's byte order and may change with this function, so
// they must never be serialized, persisted or pinned. Everything that is —
// WAL checksums, RNG substreams, shard keys, test fingerprints — uses
// util::fnv1a64 (rng.h).
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace cookiepicker::util {

namespace text_hash_detail {

inline constexpr std::uint64_t kSecret0 = 0xa0761d6478bd642fULL;
inline constexpr std::uint64_t kSecret1 = 0xe7037ed1a0b428dbULL;
inline constexpr std::uint64_t kSecret2 = 0x8ebc6af09c88c6e3ULL;

inline std::uint64_t foldedMultiply(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(product) ^
         static_cast<std::uint64_t>(product >> 64);
}

inline std::uint64_t load64(const char* data) {
  std::uint64_t word;
  std::memcpy(&word, data, sizeof(word));
  return word;
}

inline std::uint64_t load32(const char* data) {
  std::uint32_t word;
  std::memcpy(&word, data, sizeof(word));
  return word;
}

inline std::uint64_t step(std::uint64_t state, std::uint64_t word) {
  return foldedMultiply(word ^ kSecret1, state ^ kSecret2);
}

}  // namespace text_hash_detail

inline std::uint64_t textHash64(std::string_view text) {
  using namespace text_hash_detail;
  const char* data = text.data();
  std::size_t n = text.size();
  std::uint64_t state = kSecret0 ^ (static_cast<std::uint64_t>(n) * kSecret1);
  if (n <= 8) {
    // Up to eight bytes in one word; the length in the seed separates
    // tails that pack to the same word.
    std::uint64_t word = 0;
    if (n >= 4) {
      word = (load32(data) << 32) | load32(data + n - 4);
    } else if (n > 0) {
      word = (static_cast<std::uint64_t>(static_cast<unsigned char>(data[0]))
              << 16) |
             (static_cast<std::uint64_t>(
                  static_cast<unsigned char>(data[n >> 1]))
              << 8) |
             static_cast<unsigned char>(data[n - 1]);
    }
    state = step(state, word);
  } else {
    while (n > 8) {
      state = step(state, load64(data));
      data += 8;
      n -= 8;
    }
    // The last word ends at the last byte, overlapping the previous one.
    state = step(state, load64(data + n - 8));
  }
  // murmur3 fmix64.
  state ^= state >> 33;
  state *= 0xff51afd7ed558ccdULL;
  state ^= state >> 33;
  state *= 0xc4ceb9fe1a85ec53ULL;
  state ^= state >> 33;
  return state;
}

}  // namespace cookiepicker::util
