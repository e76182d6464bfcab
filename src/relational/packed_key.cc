#include "relational/packed_key.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

#include "relational/table.h"

namespace sdelta::rel {

namespace {
std::atomic<bool> g_packed_enabled{true};
}  // namespace

bool PackedKeysEnabled() {
  return g_packed_enabled.load(std::memory_order_relaxed);
}

void SetPackedKeysEnabled(bool enabled) {
  g_packed_enabled.store(enabled, std::memory_order_relaxed);
}

PackedKeyCodec PackedKeyCodec::ForTypes(const std::vector<ValueType>& types,
                                        const std::vector<Dictionary*>& dicts) {
  if (dicts.size() != types.size()) {
    throw std::invalid_argument(
        "PackedKeyCodec: dictionary list does not match column list");
  }
  PackedKeyCodec codec;
  if (!PackedKeysEnabled()) return codec;

  size_t num_strings = 0;
  size_t num_ints = 0;
  for (ValueType t : types) {
    if (t == ValueType::kString) {
      ++num_strings;
    } else if (t == ValueType::kInt64) {
      ++num_ints;
    } else {
      return codec;  // doubles and friends never pack
    }
  }
  // Strings take a fixed 32 bits; ints split the remainder evenly, and a
  // schema whose ints would drop below 32 bits does not pack at all.
  int int_width = 0;
  if (num_ints > 0) {
    const int budget = 128 - 32 * static_cast<int>(num_strings);
    int_width = budget / static_cast<int>(num_ints);
    if (int_width < 32) return codec;
    if (int_width > 63) int_width = 63;
  } else if (num_strings > 4) {
    return codec;
  }

  codec.cols_.reserve(types.size());
  int shift = 0;
  for (size_t i = 0; i < types.size(); ++i) {
    Col c;
    c.type = types[i];
    c.width = static_cast<uint8_t>(types[i] == ValueType::kString ? 32
                                                                  : int_width);
    c.shift = static_cast<uint8_t>(shift);
    c.null_code = (uint64_t{1} << c.width) - 1;
    if (types[i] == ValueType::kString) {
      if (dicts[i] == nullptr) {
        throw std::invalid_argument(
            "PackedKeyCodec: string key column has no dictionary");
      }
      c.dict = dicts[i];
    }
    shift += c.width;
    codec.cols_.push_back(c);
  }
  codec.packable_ = true;
  return codec;
}

PackedKeyCodec PackedKeyCodec::ForColumns(const Schema& schema,
                                          const std::vector<size_t>& key_indices,
                                          const DictionarySource& dicts) {
  std::vector<ValueType> types;
  std::vector<Dictionary*> dict_ptrs;
  types.reserve(key_indices.size());
  dict_ptrs.reserve(key_indices.size());
  const bool enabled = PackedKeysEnabled();
  for (size_t idx : key_indices) {
    const Column& col = schema.columns()[idx];
    types.push_back(col.type);
    dict_ptrs.push_back(enabled && col.type == ValueType::kString ? dicts(col)
                                                                  : nullptr);
  }
  return ForTypes(types, dict_ptrs);
}

PackedKeyCodec PackedKeyCodec::ForTableColumns(
    const Table& table, const std::vector<size_t>& key_indices,
    DictionaryArena* arena) {
  std::vector<ValueType> types;
  std::vector<Dictionary*> dict_ptrs;
  types.reserve(key_indices.size());
  dict_ptrs.reserve(key_indices.size());
  const bool enabled = PackedKeysEnabled();
  for (size_t idx : key_indices) {
    const Column& col = table.schema().columns()[idx];
    types.push_back(col.type);
    Dictionary* dict = nullptr;
    if (enabled && col.type == ValueType::kString) {
      const ColumnVector& cv = table.column_data(idx);
      if (cv.storage() == ColumnVector::Storage::kDict &&
          cv.dict() != nullptr) {
        dict = cv.dict().get();
      } else {
        dict = &arena->Add();
      }
    }
    dict_ptrs.push_back(dict);
  }
  return ForTypes(types, dict_ptrs);
}

bool PackedKeyCodec::EncodeValue(const Col& c, const Value& v,
                                 unsigned __int128* bits) const {
  uint64_t code;
  if (v.is_null()) {
    code = c.null_code;
  } else if (c.type == ValueType::kString) {
    if (v.type() != ValueType::kString) return false;
    code = c.dict->Intern(v.as_string());
  } else {
    int64_t iv;
    if (v.type() == ValueType::kInt64) {
      iv = v.as_int64();
    } else if (v.type() == ValueType::kDouble) {
      // Value::operator== widens: Int64(7) == Double(7.0). Encode an
      // integral in-range double as its int64 twin so equal keys get
      // equal codes; everything else escapes. The range check must come
      // before the cast — out-of-range double-to-int conversion is UB.
      const double d = v.as_double();
      if (!(d >= 0.0 && d < static_cast<double>(c.null_code))) return false;
      iv = static_cast<int64_t>(d);
      if (static_cast<double>(iv) != d) return false;
    } else {
      return false;
    }
    if (iv < 0 || static_cast<uint64_t>(iv) >= c.null_code) return false;
    code = static_cast<uint64_t>(iv);
  }
  *bits |= static_cast<unsigned __int128>(code) << c.shift;
  return true;
}

bool PackedKeyCodec::EncodeValueMode(const Col& c, const Value& v,
                                     StringMode mode, unsigned __int128* bits,
                                     bool* unknown) const {
  if (mode == StringMode::kIntern || v.is_null() ||
      c.type != ValueType::kString) {
    return EncodeValue(c, v, bits);
  }
  if (v.type() != ValueType::kString) return false;
  const std::optional<uint32_t> code = c.dict->Lookup(v.as_string());
  if (!code.has_value()) {
    *unknown = true;
    return false;
  }
  *bits |= static_cast<unsigned __int128>(*code) << c.shift;
  return true;
}

PackedKeyCodec::ColumnarEncode PackedKeyCodec::EncodeColumns(
    const Table& table, const std::vector<size_t>& indices, size_t row,
    StringMode mode, PackedKey* out) const {
  unsigned __int128 bits = 0;
  for (size_t i = 0; i < cols_.size(); ++i) {
    const Col& c = cols_[i];
    const ColumnVector& cv = table.column_data(indices[i]);
    switch (cv.storage()) {
      case ColumnVector::Storage::kInt64: {
        if (ColumnVector::WordBit(cv.null_words(), row)) {
          bits |= static_cast<unsigned __int128>(c.null_code) << c.shift;
          break;
        }
        const int64_t iv = cv.ints()[row];
        if (iv < 0 || static_cast<uint64_t>(iv) >= c.null_code) {
          return ColumnarEncode::kEscaped;
        }
        bits |= static_cast<unsigned __int128>(static_cast<uint64_t>(iv))
                << c.shift;
        break;
      }
      case ColumnVector::Storage::kDict: {
        if (ColumnVector::WordBit(cv.null_words(), row)) {
          bits |= static_cast<unsigned __int128>(c.null_code) << c.shift;
          break;
        }
        const uint32_t sc = cv.codes()[row];
        if (c.dict == cv.dict().get()) {
          // The codec shares the column's dictionary: the stored code
          // IS the key code — no hashing at all.
          bits |= static_cast<unsigned __int128>(sc) << c.shift;
          break;
        }
        const std::string& s = cv.dict()->ValueOf(sc);
        uint64_t code;
        if (mode == StringMode::kIntern) {
          code = c.dict->Intern(s);
        } else {
          const std::optional<uint32_t> found = c.dict->Lookup(s);
          if (!found.has_value()) return ColumnarEncode::kUnknownString;
          code = *found;
        }
        bits |= static_cast<unsigned __int128>(code) << c.shift;
        break;
      }
      default: {
        // Boxed storage (or a defensive fallback): exact EncodeRow
        // semantics on the materialized value.
        bool unknown = false;
        if (!EncodeValueMode(c, cv.At(row), mode, &bits, &unknown)) {
          return unknown ? ColumnarEncode::kUnknownString
                         : ColumnarEncode::kEscaped;
        }
        break;
      }
    }
  }
  *out = PackedKey{static_cast<uint64_t>(bits),
                   static_cast<uint64_t>(bits >> 64)};
  return ColumnarEncode::kPacked;
}

namespace {

/// ORs `code` into the key at bit offset `shift` (the field may straddle
/// the lo/hi boundary).
inline void OrField(PackedKey* key, uint64_t code, unsigned shift) {
  if (shift >= 64) {
    key->hi |= code << (shift - 64);
    return;
  }
  key->lo |= code << shift;
  if (shift > 0) key->hi |= code >> (64 - shift);
}

}  // namespace

void PackedKeyCodec::EncodeColumnsRange(const Table& table,
                                        const std::vector<size_t>& indices,
                                        size_t begin, size_t end,
                                        StringMode mode, PackedKey* out,
                                        ColumnarEncode* outcome) const {
  const size_t n = end - begin;
  std::fill(out, out + n, PackedKey{});
  std::fill(outcome, outcome + n, ColumnarEncode::kPacked);
  for (size_t i = 0; i < cols_.size(); ++i) {
    const Col& c = cols_[i];
    const ColumnVector& cv = table.column_data(indices[i]);
    const uint64_t* nulls = cv.null_words();
    if (cv.storage() == ColumnVector::Storage::kInt64) {
      const int64_t* ints = cv.ints();
      for (size_t k = 0; k < n; ++k) {
        const size_t row = begin + k;
        uint64_t code = c.null_code;
        if (!ColumnVector::WordBit(nulls, row)) {
          const int64_t iv = ints[row];
          if (iv < 0 || static_cast<uint64_t>(iv) >= c.null_code) {
            if (outcome[k] == ColumnarEncode::kPacked) {
              outcome[k] = ColumnarEncode::kEscaped;
            }
            continue;
          }
          code = static_cast<uint64_t>(iv);
        }
        OrField(&out[k], code, c.shift);
      }
    } else if (cv.storage() == ColumnVector::Storage::kDict &&
               c.dict == cv.dict().get()) {
      // The codec shares the column's dictionary: codes copy verbatim.
      const uint32_t* codes = cv.codes();
      for (size_t k = 0; k < n; ++k) {
        const size_t row = begin + k;
        OrField(&out[k],
                ColumnVector::WordBit(nulls, row) ? c.null_code : codes[row],
                c.shift);
      }
    } else {
      // Strings through another dictionary, boxed storage: the exact
      // per-value path, skipping keys an earlier column already failed.
      for (size_t k = 0; k < n; ++k) {
        if (outcome[k] != ColumnarEncode::kPacked) continue;
        unsigned __int128 bits = 0;
        bool unknown = false;
        if (EncodeValueMode(c, cv.At(begin + k), mode, &bits, &unknown)) {
          out[k].lo |= static_cast<uint64_t>(bits);
          out[k].hi |= static_cast<uint64_t>(bits >> 64);
        } else {
          outcome[k] = unknown ? ColumnarEncode::kUnknownString
                               : ColumnarEncode::kEscaped;
        }
      }
    }
  }
}

std::optional<PackedKey> PackedKeyCodec::EncodeRow(
    const Row& row, const std::vector<size_t>& indices) const {
  unsigned __int128 bits = 0;
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (!EncodeValue(cols_[i], row[indices[i]], &bits)) return std::nullopt;
  }
  return PackedKey{static_cast<uint64_t>(bits),
                   static_cast<uint64_t>(bits >> 64)};
}

std::optional<PackedKey> PackedKeyCodec::EncodeKey(const GroupKey& key) const {
  unsigned __int128 bits = 0;
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (!EncodeValue(cols_[i], key[i], &bits)) return std::nullopt;
  }
  return PackedKey{static_cast<uint64_t>(bits),
                   static_cast<uint64_t>(bits >> 64)};
}

GroupKey PackedKeyCodec::Decode(const PackedKey& key) const {
  unsigned __int128 bits =
      (static_cast<unsigned __int128>(key.hi) << 64) | key.lo;
  GroupKey out;
  out.reserve(cols_.size());
  for (const Col& c : cols_) {
    const uint64_t code =
        static_cast<uint64_t>((bits >> c.shift)) & c.null_code;
    if (code == c.null_code) {
      out.push_back(Value::Null());
    } else if (c.type == ValueType::kString) {
      out.push_back(Value::String(c.dict->ValueOf(static_cast<uint32_t>(code))));
    } else {
      out.push_back(Value::Int64(static_cast<int64_t>(code)));
    }
  }
  return out;
}

}  // namespace sdelta::rel
