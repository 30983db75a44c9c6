#ifndef CGQ_STORAGE_BLOCK_H_
#define CGQ_STORAGE_BLOCK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/format.h"
#include "types/value.h"

namespace cgq {
namespace storage {

/// Immutable checksummed data block (`b<id>.blk`): one file frame with
/// kBlockMagic. When every row has the same (non-zero) width — the
/// normal case for table fragments — the payload is columnar:
///
///   u32 rows, u32 cols
///   cols x (u32 offset, u32 length)   column directory; offsets are
///                                     relative to the first chunk and
///                                     the chunks tile the rest exactly
///   cols x chunk                      one per column, base order
///
/// Every chunk uses the same codec, whatever the column's type:
///
///   rows x u8     representation per row: 0 NULL, 1 int64 (also DATE),
///                 2 double, 3 string
///   int64 values  8-byte LE, one per int64 row, in row order
///   double values IEEE-754 bits as 8-byte LE, one per double row
///   strings       u32 length + bytes, one per string row
///
/// so NULLs, dates and mixed-representation columns need no fallback.
/// Otherwise (ragged widths, or width 0) the payload is row-major:
/// u32 rows, then each row as wire::Writer::PutRow. The header `type`
/// field is a flag word:
inline constexpr uint16_t kBlockColumnar = 1;  ///< bit 0: columnar payload

/// Base-order column positions a decode keeps, strictly increasing.
using ColumnSelection = std::vector<uint32_t>;

/// kInvalidArgument unless `columns` is strictly increasing.
Status ValidateSelection(const ColumnSelection& columns);

/// Narrows `row` to the selected positions it has, in base order (the
/// projection every selective decode equals).
Row ProjectRow(const Row& row, const ColumnSelection& columns);

/// What one decode touched (the storage.columns_* counters).
struct BlockReadStats {
  int64_t columns_read = 0;     ///< column chunks decoded
  int64_t columns_skipped = 0;  ///< column chunks verified, not decoded
};

/// Encodes rows as a complete block file (header + payload).
/// kInvalidArgument when the payload would exceed kMaxFrameBytes (the
/// engine cuts blocks far smaller; only a single enormous row can hit
/// this, and it must fail here, not at read time).
Result<std::string> EncodeBlockFile(const std::vector<Row>& rows);

/// Decodes a block file. With `columns`, each row holds just the
/// selected columns (ProjectRow of the full row), and a columnar block
/// decodes only the selected chunks. The checksum always covers the
/// whole payload, so a flipped bit in a skipped column is still caught.
/// Corruption — wrong magic, bad checksum, truncation, a directory whose
/// chunks overrun, overlap or leave gaps, trailing garbage — is typed
/// kDataLoss; a file of another format version is kUnsupported; a block
/// is never partially decoded into wrong rows.
Result<std::vector<Row>> DecodeBlockFile(
    const std::string& bytes, const std::string& what,
    const ColumnSelection* columns = nullptr,
    BlockReadStats* stats = nullptr);

}  // namespace storage
}  // namespace cgq

#endif  // CGQ_STORAGE_BLOCK_H_
