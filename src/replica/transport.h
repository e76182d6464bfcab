#ifndef SDELTA_REPLICA_TRANSPORT_H_
#define SDELTA_REPLICA_TRANSPORT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "replica/ship.h"

namespace sdelta::replica {

/// One pull from a ship stream.
struct ShipFetch {
  bool have = false;     ///< a complete record was decoded
  bool corrupt = false;  ///< bytes at the cursor failed framing/CRC
  ShipRecord record;
  /// Cursor to pass to the next Fetch. On have: just past the record.
  /// On corrupt / no-data: the *same* cursor — re-request is "call
  /// Fetch again with the cursor you already had".
  uint64_t next_cursor = 0;
};

/// Pull-based ship-stream reader. The cursor is a byte offset into the
/// stream; cursor 0 means "start of stream" and is normalized past the
/// (validated) stream header. Fetch never blocks: no complete record at
/// the cursor returns have = false.
class ShipTransport {
 public:
  virtual ~ShipTransport() = default;
  virtual ShipFetch Fetch(uint64_t cursor) = 0;
};

/// Tails a FileShipLog stream on local disk (the file transport of
/// DESIGN.md §14). Stateless between calls: every Fetch re-reads the
/// file, so a replica sees records the writer appended after the
/// replica opened the transport.
class FileShipTransport : public ShipTransport {
 public:
  explicit FileShipTransport(std::string path);
  ShipFetch Fetch(uint64_t cursor) override;

 private:
  std::string path_;
};

/// In-process stream for writer + replicas in one binary (tests, the
/// shell's demo topology, bench_service): the writer publishes into the
/// buffer, replicas Fetch from it. Thread-safe.
///
/// Fault injection (tests): each knob arms a one-shot fault applied to
/// the next Fetch that would have returned a record —
///   CorruptNextFetch    deliver the record with its payload flipped,
///                       so the CRC check rejects it (torn/garbled
///                       transmission; the stream itself stays intact);
///   DuplicateNextFetch  deliver the record without advancing the
///                       cursor, so the following Fetch re-delivers it;
///   DropNextFetch       deliver the *following* record instead (a
///                       skipped record: the replica sees a sequence
///                       gap and must re-request).
class LoopbackShipTransport : public ShipTransport, public ShipPublisher {
 public:
  LoopbackShipTransport();

  void Publish(const ShipRecord& record) override;
  uint64_t MaxEpoch() const override;
  ShipFetch Fetch(uint64_t cursor) override;

  void CorruptNextFetch();
  void DuplicateNextFetch();
  void DropNextFetch();

  uint64_t records() const;

 private:
  mutable std::mutex mu_;
  std::vector<uint8_t> bytes_;  ///< header + record frames
  uint64_t max_epoch_ = 0;
  uint64_t records_ = 0;
  bool corrupt_next_ = false;
  bool duplicate_next_ = false;
  bool drop_next_ = false;
};

}  // namespace sdelta::replica

#endif  // SDELTA_REPLICA_TRANSPORT_H_
