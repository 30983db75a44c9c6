#include "storage/storage_engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "exec/table_store.h"
#include "net/wire_protocol.h"
#include "storage/block.h"
#include "storage/format.h"
#include "storage/manifest.h"
#include "storage/wal.h"
#include "types/value.h"

namespace cgq {
namespace storage {
namespace {

namespace fs = std::filesystem;

class StorageEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("cgq-storage-test-" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "-" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name()))
               .string();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  static Row MakeRow(int64_t i) {
    return {Value::Int64(i), Value::String("row-" + std::to_string(i)),
            Value::Double(i * 0.5)};
  }
  static std::vector<Row> MakeRows(int64_t n, int64_t base = 0) {
    std::vector<Row> rows;
    rows.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) rows.push_back(MakeRow(base + i));
    return rows;
  }

  std::string dir_;
};

TEST_F(StorageEngineTest, BlockRoundTripColumnar) {
  std::vector<Row> rows = MakeRows(100);
  std::string bytes = EncodeBlockFile(rows).ValueOrDie();
  auto back = DecodeBlockFile(bytes, "test block");
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(RowsStructurallyEqual((*back)[i], rows[i])) << i;
  }
}

TEST_F(StorageEngineTest, BlockRoundTripRagged) {
  // Non-uniform widths fall back to the row-major encoding.
  std::vector<Row> rows = {{Value::Int64(1)},
                           {Value::Int64(2), Value::String("x")},
                           {}};
  std::string bytes = EncodeBlockFile(rows).ValueOrDie();
  auto back = DecodeBlockFile(bytes, "ragged block");
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(RowsStructurallyEqual((*back)[i], rows[i])) << i;
  }
}

TEST_F(StorageEngineTest, BlockChecksumMismatchIsDataLoss) {
  std::string bytes = EncodeBlockFile(MakeRows(10)).ValueOrDie();
  bytes[bytes.size() - 1] ^= 0x40;  // flip one payload bit
  auto back = DecodeBlockFile(bytes, "corrupt block");
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsDataLoss()) << back.status();
}

TEST_F(StorageEngineTest, ManifestRoundTrip) {
  Manifest m;
  m.version = 7;
  m.wal_version = 9;
  m.next_block_id = 42;
  m.fragments.push_back(
      ManifestFragment{2, "orders", {{1, 100}, {5, 23}}});
  m.fragments.push_back(ManifestFragment{3, "customer", {}});
  auto back = Manifest::Decode(m.Encode().ValueOrDie(), "test manifest");
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->version, 7u);
  EXPECT_EQ(back->wal_version, 9u);
  EXPECT_EQ(back->next_block_id, 42u);
  ASSERT_EQ(back->fragments.size(), 2u);
  EXPECT_EQ(back->fragments[0].table, "orders");
  ASSERT_EQ(back->fragments[0].blocks.size(), 2u);
  EXPECT_EQ(back->fragments[0].blocks[1].id, 5u);
  EXPECT_EQ(back->fragments[0].blocks[1].rows, 23u);
}

TEST_F(StorageEngineTest, PutAppendScanRoundTrip) {
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_).ok());
  ASSERT_TRUE(engine.Put(0, "t", MakeRows(50)).ok());
  ASSERT_TRUE(engine.Append(0, "t", MakeRows(25, 50)).ok());
  auto n = engine.FragmentRows(0, "t");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 75u);

  std::vector<Row> all;
  ASSERT_TRUE(engine.ReadAll(0, "t", &all).ok());
  ASSERT_EQ(all.size(), 75u);
  for (int64_t i = 0; i < 75; ++i) {
    EXPECT_TRUE(
        RowsStructurallyEqual(all[static_cast<size_t>(i)], MakeRow(i)))
        << i;
  }
}

TEST_F(StorageEngineTest, RecoveryAfterCleanClose) {
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok());
    ASSERT_TRUE(engine.Put(1, "a", MakeRows(30)).ok());
    ASSERT_TRUE(engine.Put(2, "b", MakeRows(10, 100)).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    // Mutations after the checkpoint live only in the commit log.
    ASSERT_TRUE(engine.Append(1, "a", MakeRows(5, 30)).ok());
  }
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_).ok());
  EXPECT_GT(engine.recovery_replays(), 0);
  auto frags = engine.ListFragments();
  ASSERT_EQ(frags.size(), 2u);
  EXPECT_EQ(frags[0].table, "a");
  EXPECT_EQ(frags[0].rows, 35u);
  EXPECT_EQ(frags[1].rows, 10u);
  std::vector<Row> all;
  ASSERT_TRUE(engine.ReadAll(1, "a", &all).ok());
  ASSERT_EQ(all.size(), 35u);
  for (int64_t i = 0; i < 35; ++i) {
    EXPECT_TRUE(
        RowsStructurallyEqual(all[static_cast<size_t>(i)], MakeRow(i)));
  }
}

TEST_F(StorageEngineTest, PutReplacesAcrossRestart) {
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok());
    ASSERT_TRUE(engine.Put(0, "t", MakeRows(40)).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    ASSERT_TRUE(engine.Put(0, "t", MakeRows(3, 1000)).ok());
  }
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_).ok());
  std::vector<Row> all;
  ASSERT_TRUE(engine.ReadAll(0, "t", &all).ok());
  ASSERT_EQ(all.size(), 3u);
  EXPECT_TRUE(RowsStructurallyEqual(all[0], MakeRow(1000)));
}

TEST_F(StorageEngineTest, SmallBlocksStreamThroughCursor) {
  StorageOptions options;
  options.block_target_bytes = 256;  // force many blocks
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_, options).ok());
  ASSERT_TRUE(engine.Put(0, "t", MakeRows(200)).ok());
  ASSERT_TRUE(engine.Checkpoint().ok());
  EXPECT_GT(engine.blocks_written(), 1);

  auto cursor = engine.Scan(0, "t");
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  std::vector<Row> all, chunk;
  while (true) {
    auto more = cursor->Next(&chunk);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    for (Row& r : chunk) all.push_back(std::move(r));
  }
  EXPECT_GT(cursor->blocks_read(), 1);
  ASSERT_EQ(all.size(), 200u);
  for (int64_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(
        RowsStructurallyEqual(all[static_cast<size_t>(i)], MakeRow(i)));
  }
}

TEST_F(StorageEngineTest, AutoCheckpointRotatesLog) {
  StorageOptions options;
  options.block_target_bytes = 512;
  options.wal_checkpoint_bytes = 2048;  // checkpoint after ~2KB of log
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_, options).ok());
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.Append(0, "t", MakeRows(10, i * 10)).ok());
  }
  // At least one automatic checkpoint must have rotated the commit log.
  bool found_later_wal = false;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && name != "wal-1.log") {
      found_later_wal = true;
    }
  }
  EXPECT_TRUE(found_later_wal);
  auto n = engine.FragmentRows(0, "t");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 200u);
}

TEST_F(StorageEngineTest, MissingCurrentOverLiveBlocksIsDataLoss) {
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok());
    ASSERT_TRUE(engine.Put(0, "t", MakeRows(10)).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  fs::remove(fs::path(dir_) / "CURRENT");
  StorageEngine engine;
  Status s = engine.Open(dir_);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsDataLoss()) << s;
}

TEST_F(StorageEngineTest, PartialFlushFailureKeepsFragmentConsistent) {
  StorageOptions options;
  options.block_target_bytes = 256;  // a flush cuts many blocks
  options.wal_checkpoint_bytes = 0;  // no automatic checkpoints
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_, options).ok());
  // The flush's second block write fails mid-way: the flushed prefix is
  // in blocks, the remainder must still be intact in the tail — and the
  // Put stays acknowledged (its rows are in the commit log).
  Failpoints::ArmEveryN("storage.flush", 2);
  ASSERT_TRUE(engine.Put(0, "t", MakeRows(200)).ok());
  Failpoints::DisarmAll();

  auto n = engine.FragmentRows(0, "t");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 200u);
  std::vector<Row> all;
  ASSERT_TRUE(engine.ReadAll(0, "t", &all).ok());
  ASSERT_EQ(all.size(), 200u);
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        RowsStructurallyEqual(all[static_cast<size_t>(i)], MakeRow(i)))
        << i;
  }

  // A later successful checkpoint persists exactly these rows.
  ASSERT_TRUE(engine.Checkpoint().ok());
  StorageEngine reopened;
  ASSERT_TRUE(reopened.Open(dir_, options).ok());
  ASSERT_TRUE(reopened.ReadAll(0, "t", &all).ok());
  ASSERT_EQ(all.size(), 200u);
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        RowsStructurallyEqual(all[static_cast<size_t>(i)], MakeRow(i)))
        << i;
  }
}

TEST_F(StorageEngineTest, InterruptedFreshInitIsRestartable) {
  // A kill between a fresh store's first manifest / commit-log writes
  // and the CURRENT pointer leaves only benign leftovers; Open must
  // restart the init instead of typing the empty store as data loss.
  std::error_code ec;
  fs::create_directories(dir_, ec);
  Manifest fresh;
  fresh.version = 1;
  fresh.wal_version = 1;
  std::ofstream(fs::path(dir_) / "MANIFEST-1", std::ios::binary)
      << fresh.Encode().ValueOrDie();
  std::ofstream(fs::path(dir_) / "wal-1.log", std::ios::binary);  // empty

  StorageEngine engine;
  Status s = engine.Open(dir_);
  ASSERT_TRUE(s.ok()) << s;
  ASSERT_TRUE(engine.Put(0, "t", MakeRows(5)).ok());
  auto n = engine.FragmentRows(0, "t");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 5u);
}

TEST_F(StorageEngineTest, MissingCurrentOverNonEmptyLogIsDataLoss) {
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok());
    // No checkpoint: the rows live only in the commit log.
    ASSERT_TRUE(engine.Put(0, "t", MakeRows(10)).ok());
  }
  fs::remove(fs::path(dir_) / "CURRENT");
  StorageEngine engine;
  Status s = engine.Open(dir_);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsDataLoss()) << s;
}

TEST_F(StorageEngineTest, ScanOfMissingFragmentIsNotFound) {
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_).ok());
  auto cursor = engine.Scan(0, "nope");
  ASSERT_FALSE(cursor.ok());
  EXPECT_TRUE(cursor.status().IsNotFound());
}

// --- Format version 2: column directory, selective decode ---------------

/// Every strictly increasing subset of [0, width).
std::vector<ColumnSelection> AllSelections(uint32_t width) {
  std::vector<ColumnSelection> out;
  for (uint32_t mask = 0; mask < (1u << width); ++mask) {
    ColumnSelection sel;
    for (uint32_t c = 0; c < width; ++c) {
      if (mask & (1u << c)) sel.push_back(c);
    }
    out.push_back(std::move(sel));
  }
  return out;
}

/// One random cell of a column of the given kind: 0 int, 1 double,
/// 2 date (int64 days), 3 string (empty, short or longer than the
/// 15-byte small-string buffer), 4 mixed representations.
Value RandomCell(std::mt19937_64& rng, int kind) {
  if (rng() % 5 == 0) return Value::Null();
  if (kind == 4) kind = static_cast<int>(rng() % 4);
  switch (kind) {
    case 0:
      return Value::Int64(static_cast<int64_t>(rng()));
    case 1:
      return Value::Double(static_cast<double>(rng() % 100000) / 7.0 -
                           5000.0);
    case 2:
      return Value::Date(static_cast<int64_t>(rng() % 20000));
    default: {
      const size_t len = rng() % 3 == 0 ? 0 : rng() % 40;
      std::string s;
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng() % 26));
      }
      return Value::String(std::move(s));
    }
  }
}

TEST_F(StorageEngineTest, SelectiveDecodeEqualsProjectedFullDecode) {
  std::mt19937_64 rng(20261018);
  for (int iter = 0; iter < 60; ++iter) {
    const uint32_t width = 1 + static_cast<uint32_t>(rng() % 6);
    const size_t nrows = rng() % 5 == 0 ? 0 : 1 + rng() % 40;
    const bool ragged = iter % 4 == 3;
    std::vector<int> kinds(width);
    for (int& k : kinds) k = static_cast<int>(rng() % 5);
    std::vector<Row> rows(nrows);
    for (size_t i = 0; i < nrows; ++i) {
      const uint32_t w =
          ragged ? static_cast<uint32_t>(rng() % (width + 1)) : width;
      for (uint32_t c = 0; c < w; ++c) {
        rows[i].push_back(RandomCell(rng, kinds[c]));
      }
    }
    SCOPED_TRACE("iter " + std::to_string(iter));
    const std::string bytes = EncodeBlockFile(rows).ValueOrDie();
    auto full = DecodeBlockFile(bytes, "block");
    ASSERT_TRUE(full.ok()) << full.status();
    ASSERT_EQ(full->size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(RowsStructurallyEqual((*full)[i], rows[i])) << i;
    }
    for (const ColumnSelection& sel : AllSelections(width)) {
      BlockReadStats stats;
      auto part = DecodeBlockFile(bytes, "block", &sel, &stats);
      ASSERT_TRUE(part.ok()) << part.status();
      ASSERT_EQ(part->size(), rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_TRUE(
            RowsStructurallyEqual((*part)[i], ProjectRow(rows[i], sel)))
            << "row " << i;
      }
      const bool columnar = !ragged && nrows > 0;
      if (columnar) {
        EXPECT_EQ(stats.columns_read, static_cast<int64_t>(sel.size()));
        EXPECT_EQ(stats.columns_skipped,
                  static_cast<int64_t>(width - sel.size()));
      } else {
        EXPECT_EQ(stats.columns_skipped, 0);
      }
    }
  }
}

TEST_F(StorageEngineTest, SelectionMustBeStrictlyIncreasing) {
  const std::string bytes = EncodeBlockFile(MakeRows(3)).ValueOrDie();
  const ColumnSelection unsorted = {2, 0};
  auto back = DecodeBlockFile(bytes, "block", &unsorted);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsInvalidArgument()) << back.status();
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_).ok());
  ASSERT_TRUE(engine.Put(0, "t", MakeRows(3)).ok());
  EXPECT_TRUE(engine.Scan(0, "t", ColumnSelection{1, 1})
                  .status()
                  .IsInvalidArgument());
}

// The checksum covers every payload byte of every block a scan opens, so
// a flip in a column the scan skips is still caught; the type flags are
// bound through the checksum seed. Only the version field answers
// differently: it is read before the checksum so that files of another
// format version are named as such (kUnsupported).
TEST_F(StorageEngineTest, BitFlipAtEveryByteFailsUnderEverySelection) {
  std::vector<Row> rows = {
      {Value::Int64(7), Value::String("a string over fifteen bytes"),
       Value::Null()},
      {Value::Null(), Value::String(""), Value::Double(-0.5)},
      {Value::Date(19000), Value::String("x"), Value::Int64(3)}};
  const std::string good = EncodeBlockFile(rows).ValueOrDie();
  std::vector<ColumnSelection> selections = AllSelections(3);
  for (size_t at = 0; at < good.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[at] = static_cast<char>(bad[at] ^ (1 << bit));
      for (const ColumnSelection& sel : selections) {
        auto back = DecodeBlockFile(bad, "flipped", &sel);
        ASSERT_FALSE(back.ok()) << "byte " << at << " bit " << bit;
        if (at == 4 || at == 5) {
          EXPECT_TRUE(back.status().IsUnsupported()) << back.status();
        } else {
          EXPECT_TRUE(back.status().IsDataLoss())
              << "byte " << at << " bit " << bit << ": " << back.status();
        }
      }
    }
  }
}

/// Frames `payload` as a checksum-valid block, so only the payload's own
/// structure can reject it.
std::string FramedBlock(const std::string& payload) {
  return EncodeFileFrame(kBlockMagic, kBlockColumnar, payload).ValueOrDie();
}

TEST_F(StorageEngineTest, BadColumnDirectoryIsDataLoss) {
  const std::string good =
      EncodeBlockFile(MakeRows(4)).ValueOrDie().substr(kFrameHeaderSize);
  // Directory entry c sits at 8 + 8c: (u32 offset, u32 length).
  auto patched = [&](size_t at, uint32_t v) {
    std::string p = good;
    for (int i = 0; i < 4; ++i) {
      p[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    return p;
  };
  auto len_of = [&](size_t c) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(good[8 + 8 * c + 4 + i]))
           << (8 * i);
    }
    return v;
  };
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"directory cut short", good.substr(0, 8 + 8 + 4)},
      {"more columns than the directory holds", patched(4, 1u << 20)},
      {"column 1 overlaps column 0", patched(8 + 8, len_of(0) - 1)},
      {"gap before column 1", patched(8 + 8, len_of(0) + 1)},
      {"column 2 overruns the payload", patched(8 + 16 + 4, 1u << 30)},
      {"last column shorter than its chunk",
       patched(8 + 16 + 4, len_of(2) - 1)},
      {"trailing bytes", good + std::string(3, '\0')},
      {"chunk shorter than its rows", patched(0, 1u << 20)},
  };
  for (const auto& [what, payload] : cases) {
    for (const ColumnSelection& sel : AllSelections(3)) {
      auto back = DecodeBlockFile(FramedBlock(payload), what, &sel);
      ASSERT_FALSE(back.ok()) << what;
      EXPECT_TRUE(back.status().IsDataLoss()) << what << ": " << back.status();
    }
  }
}

/// A file frame of the retired format version 1: the same 20-byte header
/// with version 1 and an FNV-1a payload checksum.
std::string V1Frame(uint32_t magic, uint16_t type, const std::string& payload) {
  wire::Writer w;
  w.PutU32(magic);
  w.PutU16(1);
  w.PutU16(type);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU64(wire::Fnv1a(reinterpret_cast<const uint8_t*>(payload.data()),
                       payload.size()));
  return w.Take() + payload;
}

TEST_F(StorageEngineTest, VersionOneBlockIsUnsupported) {
  // Version-1 columnar payload: u32 rows, u32 cols, column-major values.
  std::vector<Row> rows = MakeRows(5);
  wire::Writer w;
  w.PutU32(5);
  w.PutU32(3);
  for (size_t c = 0; c < 3; ++c) {
    for (const Row& row : rows) w.PutValue(row[c]);
  }
  const std::string v1 = V1Frame(kBlockMagic, kBlockColumnar, w.Take());
  auto back = DecodeBlockFile(v1, "v1 block");
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsUnsupported()) << back.status();

  // Reached through a scan of a store whose live block is version 1.
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok());
    ASSERT_TRUE(engine.Put(0, "t", rows).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".blk") {
      std::ofstream(entry.path(), std::ios::binary | std::ios::trunc) << v1;
    }
  }
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_).ok());
  std::vector<Row> all;
  Status s = engine.ReadAll(0, "t", &all);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsUnsupported()) << s;
}

TEST_F(StorageEngineTest, VersionOneManifestFailsOpenAsUnsupported) {
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok());
    ASSERT_TRUE(engine.Put(0, "t", MakeRows(5)).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  std::string current;
  std::ifstream(fs::path(dir_) / "CURRENT") >> current;
  const std::string path = (fs::path(dir_) / current).string();
  const std::string v2 = ReadFile(path).ValueOrDie();
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << V1Frame(kManifestMagic, 0, v2.substr(kFrameHeaderSize));
  StorageEngine engine;
  Status s = engine.Open(dir_);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsUnsupported()) << s;
}

TEST_F(StorageEngineTest, VersionOneCommitLogFailsOpenAsUnsupported) {
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok());
  }
  WalRecord rec;
  rec.location = 0;
  rec.table = "t";
  rec.rows = MakeRows(3);
  const std::string v2 = EncodeWalRecord(rec).ValueOrDie();
  std::ofstream(fs::path(dir_) / "wal-1.log", std::ios::binary |
                                                  std::ios::trunc)
      << V1Frame(kWalMagic, static_cast<uint16_t>(WalRecordType::kPut),
                 v2.substr(kFrameHeaderSize));
  StorageEngine engine;
  Status s = engine.Open(dir_);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsUnsupported()) << s;
}

TEST_F(StorageEngineTest, CursorSelectionNarrowsBlockAndTailRows) {
  StorageOptions options;
  options.block_target_bytes = 256;  // several blocks
  options.wal_checkpoint_bytes = 0;
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_, options).ok());
  ASSERT_TRUE(engine.Put(0, "t", MakeRows(100)).ok());
  ASSERT_TRUE(engine.Checkpoint().ok());
  // Unflushed tail rows: appended after the checkpoint, under a block.
  ASSERT_TRUE(engine.Append(0, "t", MakeRows(2, 100)).ok());

  const ColumnSelection sel = {0, 2};
  auto cursor = engine.Scan(0, "t", sel);
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  std::vector<Row> all, chunk;
  while (true) {
    auto more = cursor->Next(&chunk);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    for (Row& r : chunk) all.push_back(std::move(r));
  }
  ASSERT_EQ(all.size(), 102u);
  for (int64_t i = 0; i < 102; ++i) {
    ASSERT_TRUE(RowsStructurallyEqual(all[static_cast<size_t>(i)],
                                      ProjectRow(MakeRow(i), sel)))
        << i;
  }
  EXPECT_GT(cursor->blocks_read(), 1);
  EXPECT_EQ(cursor->columns_read(), 2 * cursor->blocks_read());
  EXPECT_EQ(cursor->columns_skipped(), cursor->blocks_read());
}

TEST_F(StorageEngineTest, TableStoreScanNarrowsInBothModes) {
  const ColumnSelection sel = {1};
  TableStore store;
  ASSERT_TRUE(store.Put(0, "t", MakeRows(20)).ok());
  for (StorageMode mode : {StorageMode::kMemory, StorageMode::kDisk}) {
    if (mode == StorageMode::kDisk) {
      ASSERT_TRUE(store.EnableDiskStorage(dir_).ok());
    }
    auto cursor = store.Scan(0, "t", sel);
    ASSERT_TRUE(cursor.ok()) << cursor.status();
    std::vector<Row> all, chunk;
    while (true) {
      auto more = cursor->Next(&chunk);
      ASSERT_TRUE(more.ok()) << more.status();
      if (!*more) break;
      for (Row& r : chunk) all.push_back(std::move(r));
    }
    ASSERT_EQ(all.size(), 20u);
    for (int64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(RowsStructurallyEqual(all[static_cast<size_t>(i)],
                                        ProjectRow(MakeRow(i), sel)))
          << i;
    }
  }
}

}  // namespace
}  // namespace storage
}  // namespace cgq
