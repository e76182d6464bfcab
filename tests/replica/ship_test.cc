// Ship-stream framing (DESIGN.md §14): CRC-covered frames, torn-tail
// detection, and the durable FileShipLog's scan/truncate/resume
// behavior — the wire contract replicas depend on for the CRC-reject
// and re-request failure paths.
#include "replica/ship.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "replica/transport.h"

namespace sdelta::replica {
namespace {

namespace fs = std::filesystem;

ShipRecord MakeRecord(uint64_t epoch, uint64_t first, uint64_t last,
                      const std::string& payload) {
  ShipRecord rec;
  rec.epoch = epoch;
  rec.first_seq = first;
  rec.last_seq = last;
  rec.payload.assign(payload.begin(), payload.end());
  return rec;
}

std::vector<uint8_t> StreamOf(const std::vector<ShipRecord>& records) {
  std::vector<uint8_t> bytes = ShipStreamHeader();
  for (const ShipRecord& rec : records) {
    const std::vector<uint8_t> frame = EncodeShipRecord(rec);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
}

TEST(ShipTest, EncodeDecodeRoundtrip) {
  const ShipRecord rec = MakeRecord(7, 3, 5, "payload bytes");
  const std::vector<uint8_t> bytes = StreamOf({rec});
  ShipRecord out;
  size_t next = 0;
  ASSERT_EQ(DecodeShipRecord(bytes, kShipHeaderSize, &out, &next),
            ShipDecode::kOk);
  EXPECT_EQ(out.epoch, 7u);
  EXPECT_EQ(out.first_seq, 3u);
  EXPECT_EQ(out.last_seq, 5u);
  EXPECT_EQ(std::string(out.payload.begin(), out.payload.end()),
            "payload bytes");
  EXPECT_EQ(next, bytes.size());
}

TEST(ShipTest, EmptyPayloadRoundtrips) {
  const std::vector<uint8_t> bytes = StreamOf({MakeRecord(1, 1, 1, "")});
  ShipRecord out;
  size_t next = 0;
  ASSERT_EQ(DecodeShipRecord(bytes, kShipHeaderSize, &out, &next),
            ShipDecode::kOk);
  EXPECT_TRUE(out.payload.empty());
}

TEST(ShipTest, EveryFlippedByteIsCaught) {
  // The CRC covers the whole frame (epoch, seqs, length) plus the
  // payload: flipping any byte of the record must yield kCorrupt — or
  // kNeedMore for length-field flips that make the frame claim more
  // bytes than the buffer holds. No flip may decode as a different
  // valid record.
  const std::vector<uint8_t> clean = StreamOf({MakeRecord(9, 4, 6, "abc")});
  for (size_t i = kShipHeaderSize; i < clean.size(); ++i) {
    std::vector<uint8_t> bent = clean;
    bent[i] ^= 0x01;
    ShipRecord out;
    size_t next = 0;
    const ShipDecode result =
        DecodeShipRecord(bent, kShipHeaderSize, &out, &next);
    EXPECT_NE(result, ShipDecode::kOk) << "flipped byte " << i;
  }
}

TEST(ShipTest, TornTailNeedsMore) {
  const std::vector<uint8_t> clean = StreamOf({MakeRecord(2, 1, 2, "hello")});
  for (size_t cut = kShipHeaderSize; cut < clean.size(); ++cut) {
    const std::vector<uint8_t> torn(clean.begin(), clean.begin() + cut);
    ShipRecord out;
    size_t next = 0;
    EXPECT_EQ(DecodeShipRecord(torn, kShipHeaderSize, &out, &next),
              ShipDecode::kNeedMore)
        << "cut at " << cut;
  }
}

TEST(ShipTest, HeaderValidation) {
  std::vector<uint8_t> header = ShipStreamHeader();
  EXPECT_TRUE(CheckShipHeader(header));
  EXPECT_FALSE(CheckShipHeader({header.begin(), header.begin() + 4}));
  std::vector<uint8_t> bad_magic = header;
  bad_magic[0] = 'X';
  EXPECT_THROW(CheckShipHeader(bad_magic), std::runtime_error);
  std::vector<uint8_t> bad_version = header;
  bad_version.back() = 99;
  EXPECT_THROW(CheckShipHeader(bad_version), std::runtime_error);
}

TEST(ShipTest, FileShipLogResumesAndTruncatesTornTail) {
  const fs::path path =
      fs::temp_directory_path() /
      ("sdelta_ship_test_" + std::to_string(::getpid()) + ".ship");
  fs::remove(path);

  {
    FileShipLog log(path.string());
    EXPECT_EQ(log.MaxEpoch(), 0u);
    log.Publish(MakeRecord(1, 1, 1, "one"));
    log.Publish(MakeRecord(2, 2, 3, "two"));
    EXPECT_EQ(log.MaxEpoch(), 2u);
    EXPECT_EQ(log.max_seq(), 3u);
    EXPECT_EQ(log.records(), 2u);
  }
  {
    // Reopen scans the stream: epoch numbering resumes past history.
    FileShipLog log(path.string());
    EXPECT_EQ(log.MaxEpoch(), 2u);
    EXPECT_EQ(log.max_seq(), 3u);
    EXPECT_EQ(log.records(), 2u);
  }
  const uintmax_t intact_size = fs::file_size(path);
  {
    // A torn append (crash mid-write): garbage bytes after the last
    // intact record.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "garbage torn tail";
  }
  {
    FileShipLog log(path.string());
    EXPECT_EQ(log.records(), 2u);
    log.Publish(MakeRecord(3, 4, 4, "three"));
  }
  // The torn bytes were cut before the new record went in: the whole
  // stream decodes cleanly end to end.
  EXPECT_GT(fs::file_size(path), intact_size);
  FileShipTransport transport(path.string());
  uint64_t cursor = 0;
  size_t decoded = 0;
  while (true) {
    const ShipFetch fetch = transport.Fetch(cursor);
    EXPECT_FALSE(fetch.corrupt);
    if (!fetch.have) break;
    ++decoded;
    cursor = fetch.next_cursor;
  }
  EXPECT_EQ(decoded, 3u);
  fs::remove(path);
}

TEST(ShipTest, LoopbackFaultInjectionIsOneShot) {
  LoopbackShipTransport loop;
  loop.Publish(MakeRecord(1, 1, 1, "a"));
  loop.Publish(MakeRecord(2, 2, 2, "b"));

  // Corrupt: one delivery fails CRC at the same cursor, then heals.
  loop.CorruptNextFetch();
  ShipFetch fetch = loop.Fetch(0);
  EXPECT_TRUE(fetch.corrupt);
  EXPECT_FALSE(fetch.have);
  fetch = loop.Fetch(fetch.next_cursor);
  ASSERT_TRUE(fetch.have);
  EXPECT_EQ(fetch.record.epoch, 1u);

  // Duplicate: the record is delivered without advancing the cursor.
  loop.DuplicateNextFetch();
  const ShipFetch dup = loop.Fetch(fetch.next_cursor);
  ASSERT_TRUE(dup.have);
  EXPECT_EQ(dup.record.epoch, 2u);
  const ShipFetch again = loop.Fetch(dup.next_cursor);
  ASSERT_TRUE(again.have);
  EXPECT_EQ(again.record.epoch, 2u);

  // Drop: the *following* record is delivered instead (a sequence gap).
  loop.Publish(MakeRecord(3, 3, 3, "c"));
  loop.Publish(MakeRecord(4, 4, 4, "d"));
  loop.DropNextFetch();
  const ShipFetch skipped = loop.Fetch(again.next_cursor);
  ASSERT_TRUE(skipped.have);
  EXPECT_EQ(skipped.record.epoch, 4u);
  // One-shot: the skipped record is still in the stream.
  const ShipFetch healed = loop.Fetch(again.next_cursor);
  ASSERT_TRUE(healed.have);
  EXPECT_EQ(healed.record.epoch, 3u);
}

}  // namespace
}  // namespace sdelta::replica
