#include "common/checksum.h"

namespace cgq {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

inline uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  acc ^= Round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace

uint64_t Checksum64(const uint8_t* data, size_t len, uint64_t seed) {
  const uint8_t* p = data;
  const uint8_t* const end = data + len;
  uint64_t h;
  if (len >= 32) {
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    const uint8_t* const limit = end - 32;
    do {
      v1 = Round(v1, LoadLe64(p));
      v2 = Round(v2, LoadLe64(p + 8));
      v3 = Round(v3, LoadLe64(p + 16));
      v4 = Round(v4, LoadLe64(p + 24));
      p += 32;
    } while (p <= limit);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed + kPrime5;
  }
  h += static_cast<uint64_t>(len);
  while (end - p >= 8) {
    h ^= Round(0, LoadLe64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (end - p >= 4) {
    h ^= static_cast<uint64_t>(LoadLe32(p)) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<uint64_t>(*p) * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
    ++p;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace cgq
