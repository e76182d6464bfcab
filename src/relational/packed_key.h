#ifndef SDELTA_RELATIONAL_PACKED_KEY_H_
#define SDELTA_RELATIONAL_PACKED_KEY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "relational/dictionary.h"
#include "relational/group_key.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace sdelta::rel {

class Table;

/// Global switch for packed-key codecs, consulted at codec construction
/// time. On by default; the bench_keys binary and a handful of tests
/// turn it off to exercise (and measure against) the boxed GroupKey
/// path. Not meant to be toggled while codecs built under the other
/// setting are still in use.
bool PackedKeysEnabled();
void SetPackedKeysEnabled(bool enabled);

/// A composite group key packed into 128 bits. Cheap to copy, compare
/// and hash — the fast-path key type for GroupBy, HashJoin builds, and
/// summary-table indexes.
struct PackedKey {
  uint64_t lo = 0;
  uint64_t hi = 0;

  friend bool operator==(const PackedKey& a, const PackedKey& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const PackedKey& a, const PackedKey& b) {
    return !(a == b);
  }
};

/// Hash for PackedKey, reusing the splitmix64 avalanche so dense id
/// grids spread exactly like GroupKeyHash's inputs do.
struct PackedKeyHash {
  size_t operator()(const PackedKey& k) const {
    return AvalancheMix(k.lo ^ (0x9e3779b97f4a7c15ULL * AvalancheMix(k.hi)));
  }
};

/// Encodes composite group keys into PackedKeys.
///
/// The *layout* (which columns pack, at what bit widths) is a pure
/// function of the key columns' declared types — never of the data — so
/// the packed/boxed decision is identical on every thread and at every
/// thread count. A schema packs when every key column is kInt64 or
/// kString and the widths fit in 128 bits:
///   - kString columns take 32 bits (a dictionary code);
///   - kInt64 columns split the remaining bits evenly, capped at 63 and
///     floored at 32 (below 32 the schema does not pack).
/// Per column, the all-ones pattern encodes NULL.
///
/// Individual *values* can still escape a packable layout: a negative
/// or too-large int64, or a non-integral double, has no code. Encode
/// then returns nullopt and the caller keeps that key on the boxed
/// GroupKey path. Escape is a pure function of the value, and an
/// escaping value can never compare Value-equal to an encodable one
/// (negative vs non-negative, out-of-range vs in-range, non-integral vs
/// integral), so a packed map and a boxed fallback map never need to
/// probe each other.
///
/// Int64-vs-double widening: Value::operator== makes Int64(7) equal
/// Double(7.0), so an in-range integral double encodes exactly as its
/// int64 twin; all other doubles escape (and equal no packed key).
class PackedKeyCodec {
 public:
  /// Supplies the dictionary for a string key column; only invoked for
  /// kString columns.
  using DictionarySource = std::function<Dictionary*(const Column&)>;

  /// A default-constructed codec packs nothing (packable() is false).
  PackedKeyCodec() = default;

  /// Builds a codec for key columns of the given types. `dicts` runs
  /// parallel to `types`; entries for kString columns must be non-null.
  static PackedKeyCodec ForTypes(const std::vector<ValueType>& types,
                                 const std::vector<Dictionary*>& dicts);

  /// Convenience: types read from `schema` at `key_indices`, dictionaries
  /// drawn from `dicts` (catalog pool or operator-local arena).
  static PackedKeyCodec ForColumns(const Schema& schema,
                                   const std::vector<size_t>& key_indices,
                                   const DictionarySource& dicts);

  /// Codec wired to a columnar table's own storage: string key columns
  /// in dictionary mode reuse the column's dictionary, so EncodeColumns
  /// copies codes straight out of the column with no hashing at all.
  /// Columns without a dictionary (empty, or demoted to boxed) get an
  /// arena-backed one instead.
  static PackedKeyCodec ForTableColumns(const Table& table,
                                        const std::vector<size_t>& key_indices,
                                        DictionaryArena* arena);

  /// String resolution policy for EncodeColumns. kIntern matches
  /// EncodeRow (first sight assigns a code) and is safe for serial
  /// build loops; kLookupOnly never mutates a dictionary — parallel
  /// probe loops use it, treating an unknown string as "matches
  /// nothing" (every build-side string was interned first).
  enum class StringMode { kIntern, kLookupOnly };

  /// Outcome of a columnar encode.
  enum class ColumnarEncode {
    kPacked,         ///< *out holds the key
    kEscaped,        ///< value-level escape: caller takes the boxed path
    kUnknownString,  ///< kLookupOnly only: key packs but cannot match
  };

  /// Encodes the key at `indices` of `table`'s row `row`, reading the
  /// columns directly (dictionary codes copy verbatim when the column
  /// shares this codec's dictionary). Exactly equivalent to EncodeRow
  /// on the materialized row, minus the boxing.
  ColumnarEncode EncodeColumns(const Table& table,
                               const std::vector<size_t>& indices, size_t row,
                               StringMode mode, PackedKey* out) const;

  /// Batch form of EncodeColumns over rows [begin, end) of `table`:
  /// writes row begin + i's key to out[i] and its outcome to
  /// outcome[i]. Each column's storage mode is dispatched once per call
  /// rather than once per row, so typed and dictionary-shared columns
  /// encode in a tight loop. Row for row identical to EncodeColumns: a
  /// key that escapes or misses a string keeps the first failing
  /// column's outcome (its out[i] is unspecified). Under kIntern,
  /// strings new to a dictionary are interned column by column, so the
  /// codes they get may differ from a row-by-row loop's.
  void EncodeColumnsRange(const Table& table,
                          const std::vector<size_t>& indices, size_t begin,
                          size_t end, StringMode mode, PackedKey* out,
                          ColumnarEncode* outcome) const;

  bool packable() const { return packable_; }
  size_t num_columns() const { return cols_.size(); }
  int width(size_t col) const { return cols_[col].width; }

  /// Encodes the key values at `indices` of `row` (indices parallel the
  /// codec's columns). nullopt = this key escapes to the boxed path.
  std::optional<PackedKey> EncodeRow(const Row& row,
                                     const std::vector<size_t>& indices) const;

  /// Encodes an already-extracted key (key.size() == num_columns()).
  std::optional<PackedKey> EncodeKey(const GroupKey& key) const;

  /// Inverse of Encode for keys it produced. Note the representation is
  /// canonical: a key encoded from Double(7.0) decodes as Int64(7) —
  /// Value-equal, not byte-equal. Hot paths therefore keep the original
  /// first-appearance GroupKey for output and use Decode only in tests.
  GroupKey Decode(const PackedKey& key) const;

 private:
  struct Col {
    ValueType type = ValueType::kNull;
    uint8_t shift = 0;
    uint8_t width = 0;
    uint64_t null_code = 0;  // 2^width - 1: the NULL sentinel and mask
    Dictionary* dict = nullptr;
  };

  bool EncodeValue(const Col& c, const Value& v, unsigned __int128* bits) const;
  bool EncodeValueMode(const Col& c, const Value& v, StringMode mode,
                       unsigned __int128* bits, bool* unknown) const;

  bool packable_ = false;
  std::vector<Col> cols_;
};

}  // namespace sdelta::rel

#endif  // SDELTA_RELATIONAL_PACKED_KEY_H_
