#ifndef CGQ_COMMON_CHECKSUM_H_
#define CGQ_COMMON_CHECKSUM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace cgq {

/// The one payload checksum of every framed byte stream: wire frames
/// (DESIGN.md §13) and storage files — blocks, commit-log records and
/// manifests (§16). XXH64: it consumes 32 bytes per round in four
/// independent 64-bit lanes, so verifying a block costs a small
/// fraction of decoding it. Wire frames hash with seed 0; storage
/// frames seed it with their header fields, so the checksum also binds
/// the header to the payload.
uint64_t Checksum64(const uint8_t* data, size_t len, uint64_t seed = 0);

/// Little-endian fixed-width loads/stores shared by the binary codecs.
/// Byte-stable across platforms; a plain copy on little-endian hosts.
inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline void StoreLe64(uint8_t* p, uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

inline void StoreLe32(uint8_t* p, uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace cgq

#endif  // CGQ_COMMON_CHECKSUM_H_
