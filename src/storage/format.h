#ifndef CGQ_STORAGE_FORMAT_H_
#define CGQ_STORAGE_FORMAT_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace cgq {
namespace storage {

/// On-disk framing of the per-location storage engine (DESIGN.md §16).
/// Every persistent artifact — data block, commit-log record, manifest —
/// is one *file frame* with the same 20-byte header shape as the wire
/// protocol (DESIGN.md §13), distinguished by magic:
///
///   offset  size  field
///        0     4  magic     kBlockMagic / kWalMagic / kManifestMagic
///        4     2  version   format version (kFormatVersion)
///        6     2  type      artifact-specific (block flags, WAL record
///                           type, 0 for manifests)
///        8     4  len       payload length in bytes
///       12     8  checksum  Checksum64 (XXH64) over the payload bytes,
///                           seeded with magic, version and type
///       20   len  payload
///
/// All integers little-endian, so the encoding is byte-stable across
/// platforms. A checksum mismatch on a complete frame
/// is typed kDataLoss; a frame cut short at end-of-file is *torn* and the
/// caller decides (clean replay stop for the commit-log tail, kDataLoss
/// for blocks and manifests, which are only referenced once fully
/// written).
inline constexpr uint32_t kBlockMagic = 0x42514743u;     // "CGQB"
inline constexpr uint32_t kWalMagic = 0x4C514743u;       // "CGQL"
inline constexpr uint32_t kManifestMagic = 0x4D514743u;  // "CGQM"
/// Version 2: Checksum64 frames and column-directory blocks (block.h).
/// Version-1 files (FNV-1a frames, directory-less blocks) are refused
/// with kUnsupported; no code path decodes them.
inline constexpr uint16_t kFormatVersion = 2;
inline constexpr size_t kFrameHeaderSize = 20;
/// Resource guard against garbage length prefixes (far above any frame
/// the engine writes: blocks target ~256 KiB, WAL records are chunked).
inline constexpr uint32_t kMaxFrameBytes = 1u << 30;

struct FileFrameHeader {
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t type = 0;
  uint32_t payload_len = 0;
  uint64_t checksum = 0;
};

/// One complete file frame: header + payload. A payload over
/// kMaxFrameBytes is rejected here (kInvalidArgument) rather than
/// written: the length field is a u32 and the read side enforces the
/// same limit, so an oversized frame would be acknowledged on disk but
/// unreadable (kDataLoss) at recovery.
Result<std::string> EncodeFileFrame(uint32_t magic, uint16_t type,
                                    const std::string& payload);

/// Parses a header from exactly kFrameHeaderSize bytes. Wrong magic or
/// an over-limit length is kDataLoss (`what` names the artifact in the
/// message); any version other than kFormatVersion is kUnsupported.
Result<FileFrameHeader> DecodeFileFrameHeader(uint32_t magic,
                                              const uint8_t* data, size_t len,
                                              const std::string& what);

/// Verifies the payload checksum; kDataLoss on mismatch (a flipped bit
/// in the type field mismatches too: it is part of the seed).
Status VerifyFilePayload(const FileFrameHeader& header, const uint8_t* payload,
                         const std::string& what);

/// Reads a whole file with one sized read; kNotFound when absent,
/// kUnavailable on I/O error.
Result<std::string> ReadFile(const std::string& path);

/// Writes a whole file via `<path>.tmp` + rename, so readers never see a
/// half-written manifest or CURRENT pointer.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

}  // namespace storage
}  // namespace cgq

#endif  // CGQ_STORAGE_FORMAT_H_
