#include "storage/block.h"

#include <algorithm>
#include <bit>

#include "common/checksum.h"
#include "net/wire_protocol.h"

namespace cgq {
namespace storage {

namespace {

/// Per-row representation byte of a column chunk.
enum Rep : uint8_t {
  kRepNull = 0,
  kRepInt = 1,  ///< int64, and DATE (days since the epoch)
  kRepDouble = 2,
  kRepString = 3,
};

void AppendLe32(std::string* out, uint32_t v) {
  uint8_t b[4];
  StoreLe32(b, v);
  out->append(reinterpret_cast<const char*>(b), sizeof(b));
}

void AppendLe64(std::string* out, uint64_t v) {
  uint8_t b[8];
  StoreLe64(b, v);
  out->append(reinterpret_cast<const char*>(b), sizeof(b));
}

Rep RepOf(const Value& v) {
  if (v.is_null()) return kRepNull;
  if (v.is_int64()) return kRepInt;
  if (v.is_double()) return kRepDouble;
  return kRepString;
}

/// Appends column `c` of `rows` as one chunk (layout in block.h).
void EncodeChunk(const std::vector<Row>& rows, size_t c, std::string* out) {
  for (const Row& row : rows) out->push_back(static_cast<char>(RepOf(row[c])));
  for (const Row& row : rows) {
    if (row[c].is_int64()) {
      AppendLe64(out, static_cast<uint64_t>(row[c].int64()));
    }
  }
  for (const Row& row : rows) {
    if (row[c].is_double()) {
      AppendLe64(out, std::bit_cast<uint64_t>(row[c].dbl()));
    }
  }
  for (const Row& row : rows) {
    if (row[c].is_string()) {
      const std::string& s = row[c].str();
      AppendLe32(out, static_cast<uint32_t>(s.size()));
      out->append(s);
    }
  }
}

/// Read cursors into one validated chunk; Next() must be called once per
/// row, in row order.
struct ChunkReader {
  const uint8_t* reps = nullptr;
  const uint8_t* ints = nullptr;
  const uint8_t* doubles = nullptr;
  const uint8_t* strings = nullptr;

  Value Next(uint32_t row) {
    switch (reps[row]) {
      case kRepInt: {
        const auto v = static_cast<int64_t>(LoadLe64(ints));
        ints += 8;
        return Value::Int64(v);
      }
      case kRepDouble: {
        const double v = std::bit_cast<double>(LoadLe64(doubles));
        doubles += 8;
        return Value::Double(v);
      }
      case kRepString: {
        const uint32_t n = LoadLe32(strings);
        std::string s(reinterpret_cast<const char*>(strings + 4), n);
        strings += 4 + static_cast<size_t>(n);
        return Value::String(std::move(s));
      }
      default:
        return Value::Null();
    }
  }
};

/// Validates one chunk end to end — representation bytes, section sizes,
/// every string length, no trailing bytes — before a single value is
/// built from it.
Status OpenChunk(const uint8_t* chunk, uint64_t len, uint32_t rows,
                 uint32_t column, const std::string& what,
                 ChunkReader* out) {
  auto corrupt = [&](const std::string& why) {
    return Status::DataLoss(what + ": column " + std::to_string(column) +
                            " chunk: " + why);
  };
  uint64_t counts[4] = {0, 0, 0, 0};
  for (uint32_t i = 0; i < rows; ++i) {
    const uint8_t rep = chunk[i];
    if (rep > kRepString) {
      return corrupt("bad representation byte " + std::to_string(rep) +
                     " at row " + std::to_string(i));
    }
    ++counts[rep];
  }
  const uint64_t fixed = rows + 8 * (counts[kRepInt] + counts[kRepDouble]);
  if (fixed > len) {
    return corrupt(std::to_string(len) + " bytes cannot hold " +
                   std::to_string(fixed) + " bytes of fixed-width values");
  }
  uint64_t pos = fixed;
  for (uint64_t s = 0; s < counts[kRepString]; ++s) {
    if (len - pos < 4) return corrupt("string length truncated");
    const uint32_t n = LoadLe32(chunk + pos);
    pos += 4;
    if (len - pos < n) {
      return corrupt("string of " + std::to_string(n) +
                     " bytes overruns the chunk");
    }
    pos += n;
  }
  if (pos != len) {
    return corrupt(std::to_string(len - pos) + " trailing bytes");
  }
  out->reps = chunk;
  out->ints = chunk + rows;
  out->doubles = out->ints + 8 * counts[kRepInt];
  out->strings = chunk + fixed;
  return Status::OK();
}

Result<std::vector<Row>> DecodeColumnar(const uint8_t* p, size_t len,
                                        const std::string& what,
                                        const ColumnSelection* columns,
                                        BlockReadStats* stats) {
  if (len < 8) {
    return Status::DataLoss(what + ": columnar block header truncated");
  }
  const uint32_t rows = LoadLe32(p);
  const uint32_t cols = LoadLe32(p + 4);
  if (cols == 0) {
    return Status::DataLoss(what + ": columnar block names no columns");
  }
  const uint64_t dir_bytes = 8ull * cols;
  if (len - 8 < dir_bytes) {
    return Status::DataLoss(what + ": directory of " + std::to_string(cols) +
                            " columns overruns the " + std::to_string(len) +
                            "-byte payload");
  }
  const uint8_t* dir = p + 8;
  const uint8_t* area = dir + dir_bytes;
  const uint64_t area_len = len - 8 - dir_bytes;

  // The whole directory is checked, skipped entries included: the
  // chunks must tile the area exactly, in column order, and each must
  // at least hold its representation bytes.
  uint64_t expect = 0;
  for (uint32_t c = 0; c < cols; ++c) {
    const uint32_t offset = LoadLe32(dir + 8ull * c);
    const uint32_t length = LoadLe32(dir + 8ull * c + 4);
    if (offset != expect) {
      return Status::DataLoss(what + ": column " + std::to_string(c) +
                              " chunk starts at " + std::to_string(offset) +
                              ", directory expects " +
                              std::to_string(expect) +
                              " (overlapping or gapped chunks)");
    }
    if (length > area_len - offset) {
      return Status::DataLoss(what + ": column " + std::to_string(c) +
                              " chunk of " + std::to_string(length) +
                              " bytes overruns the payload");
    }
    if (length < rows) {
      return Status::DataLoss(what + ": column " + std::to_string(c) +
                              " chunk of " + std::to_string(length) +
                              " bytes cannot hold " + std::to_string(rows) +
                              " rows");
    }
    expect += length;
  }
  if (expect != area_len) {
    return Status::DataLoss(what + ": " + std::to_string(area_len - expect) +
                            " trailing bytes after the column chunks");
  }

  std::vector<ChunkReader> readers;
  auto open = [&](uint32_t c) -> Status {
    ChunkReader reader;
    CGQ_RETURN_NOT_OK(OpenChunk(area + LoadLe32(dir + 8ull * c),
                                LoadLe32(dir + 8ull * c + 4), rows, c, what,
                                &reader));
    readers.push_back(reader);
    return Status::OK();
  };
  if (columns == nullptr) {
    readers.reserve(cols);
    for (uint32_t c = 0; c < cols; ++c) CGQ_RETURN_NOT_OK(open(c));
  } else {
    readers.reserve(columns->size());
    for (uint32_t c : *columns) {
      if (c >= cols) break;  // increasing: the rest are past the width too
      CGQ_RETURN_NOT_OK(open(c));
    }
  }
  if (stats != nullptr) {
    stats->columns_read += static_cast<int64_t>(readers.size());
    stats->columns_skipped += static_cast<int64_t>(cols - readers.size());
  }

  std::vector<Row> out(rows);
  for (uint32_t i = 0; i < rows; ++i) {
    Row& row = out[i];
    row.reserve(readers.size());
    for (ChunkReader& reader : readers) row.push_back(reader.Next(i));
  }
  return out;
}

Result<std::vector<Row>> DecodeRowMajor(const uint8_t* p, size_t len,
                                        const std::string& what,
                                        const ColumnSelection* columns,
                                        BlockReadStats* stats) {
  wire::Reader r(p, len);
  CGQ_ASSIGN_OR_RETURN(uint32_t n, r.U32());
  if (n > r.remaining() / 4) {  // every row costs at least its u32 width
    return Status::DataLoss(what + ": " + std::to_string(n) +
                            " rows cannot fit in " +
                            std::to_string(r.remaining()) + " bytes");
  }
  std::vector<Row> rows;
  rows.reserve(n);
  size_t widest = 0;
  for (uint32_t i = 0; i < n; ++i) {
    auto row = r.ReadRow();
    if (!row.ok()) {
      return Status::DataLoss(what + ": " + row.status().message());
    }
    widest = std::max(widest, row->size());
    rows.push_back(columns == nullptr ? std::move(*row)
                                      : ProjectRow(*row, *columns));
  }
  if (!r.AtEnd()) {
    return Status::DataLoss(what + ": " + std::to_string(r.remaining()) +
                            " trailing bytes after block rows");
  }
  // Row-major blocks decode every value.
  if (stats != nullptr) stats->columns_read += static_cast<int64_t>(widest);
  return rows;
}

}  // namespace

Status ValidateSelection(const ColumnSelection& columns) {
  for (size_t i = 1; i < columns.size(); ++i) {
    if (columns[i] <= columns[i - 1]) {
      return Status::InvalidArgument(
          "column selection must be strictly increasing (position " +
          std::to_string(columns[i]) + " follows " +
          std::to_string(columns[i - 1]) + ")");
    }
  }
  return Status::OK();
}

Row ProjectRow(const Row& row, const ColumnSelection& columns) {
  Row out;
  out.reserve(columns.size());
  for (uint32_t c : columns) {
    if (c >= row.size()) break;
    out.push_back(row[c]);
  }
  return out;
}

Result<std::string> EncodeBlockFile(const std::vector<Row>& rows) {
  const size_t width = rows.empty() ? 0 : rows.front().size();
  const bool columnar =
      width > 0 && std::all_of(rows.begin(), rows.end(), [&](const Row& r) {
        return r.size() == width;
      });
  if (!columnar) {
    wire::Writer w;
    w.PutU32(static_cast<uint32_t>(rows.size()));
    for (const Row& row : rows) w.PutRow(row);
    return EncodeFileFrame(kBlockMagic, 0, w.Take());
  }
  std::string payload;
  AppendLe32(&payload, static_cast<uint32_t>(rows.size()));
  AppendLe32(&payload, static_cast<uint32_t>(width));
  const size_t dir_at = payload.size();
  payload.resize(dir_at + 8 * width);  // directory, filled below
  const size_t area_at = payload.size();
  for (size_t c = 0; c < width; ++c) {
    const size_t start = payload.size();
    EncodeChunk(rows, c, &payload);
    auto* entry = reinterpret_cast<uint8_t*>(payload.data()) + dir_at + 8 * c;
    StoreLe32(entry, static_cast<uint32_t>(start - area_at));
    StoreLe32(entry + 4, static_cast<uint32_t>(payload.size() - start));
  }
  return EncodeFileFrame(kBlockMagic, kBlockColumnar, payload);
}

Result<std::vector<Row>> DecodeBlockFile(const std::string& bytes,
                                         const std::string& what,
                                         const ColumnSelection* columns,
                                         BlockReadStats* stats) {
  if (columns != nullptr) CGQ_RETURN_NOT_OK(ValidateSelection(*columns));
  if (bytes.size() < kFrameHeaderSize) {
    return Status::DataLoss(what + ": block truncated to " +
                            std::to_string(bytes.size()) + " bytes");
  }
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  CGQ_ASSIGN_OR_RETURN(
      FileFrameHeader header,
      DecodeFileFrameHeader(kBlockMagic, data, kFrameHeaderSize, what));
  if (bytes.size() != kFrameHeaderSize + header.payload_len) {
    return Status::DataLoss(
        what + ": block file is " + std::to_string(bytes.size()) +
        " bytes, header names " +
        std::to_string(kFrameHeaderSize + header.payload_len));
  }
  // Every payload byte is verified, whichever columns are decoded.
  CGQ_RETURN_NOT_OK(VerifyFilePayload(header, data + kFrameHeaderSize, what));
  const uint8_t* payload = data + kFrameHeaderSize;
  if (header.type & kBlockColumnar) {
    return DecodeColumnar(payload, header.payload_len, what, columns, stats);
  }
  return DecodeRowMajor(payload, header.payload_len, what, columns, stats);
}

}  // namespace storage
}  // namespace cgq
