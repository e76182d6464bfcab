// Tests for the PackedKey codec: the layout must be a pure function of
// the schema, packed equality/hashing must agree with the boxed
// GroupKey semantics (including int64-vs-double widening), and every
// value with no 128-bit encoding must escape to the boxed path.
#include "relational/packed_key.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "relational/dictionary.h"
#include "relational/group_key.h"
#include "relational/schema.h"
#include "relational/table.h"
#include "relational/value.h"

namespace sdelta::rel {
namespace {

/// Codec over int64 columns only (no dictionaries needed).
PackedKeyCodec IntCodec(size_t n) {
  return PackedKeyCodec::ForTypes(
      std::vector<ValueType>(n, ValueType::kInt64),
      std::vector<Dictionary*>(n, nullptr));
}

TEST(PackedKeyCodecTest, PackabilityIsAFunctionOfTheSchema) {
  DictionaryArena arena;
  Dictionary& d = arena.Add();
  // Retail group keys: all-int and string+int shapes pack.
  EXPECT_TRUE(IntCodec(1).packable());
  EXPECT_TRUE(IntCodec(3).packable());
  EXPECT_TRUE(IntCodec(4).packable());  // 4 * 32 == 128 exactly
  EXPECT_TRUE(PackedKeyCodec::ForTypes({ValueType::kString, ValueType::kString,
                                        ValueType::kInt64},
                                       {&d, &d, nullptr})
                  .packable());
  // Five ints would get 25 bits each — below the 32-bit floor.
  EXPECT_FALSE(IntCodec(5).packable());
  // Four strings fill all 128 bits; no room for an int alongside.
  EXPECT_TRUE(PackedKeyCodec::ForTypes(
                  std::vector<ValueType>(4, ValueType::kString),
                  std::vector<Dictionary*>(4, &d))
                  .packable());
  EXPECT_FALSE(PackedKeyCodec::ForTypes(
                   {ValueType::kString, ValueType::kString, ValueType::kString,
                    ValueType::kString, ValueType::kInt64},
                   {&d, &d, &d, &d, nullptr})
                   .packable());
  // Any column outside {kInt64, kString} disqualifies the schema.
  EXPECT_FALSE(PackedKeyCodec::ForTypes({ValueType::kDouble}, {nullptr})
                   .packable());
  EXPECT_FALSE(PackedKeyCodec::ForTypes({ValueType::kInt64, ValueType::kDouble},
                                        {nullptr, nullptr})
                   .packable());
  // The empty key (grand-total views) packs trivially.
  EXPECT_TRUE(IntCodec(0).packable());
  EXPECT_TRUE(IntCodec(0).EncodeKey(GroupKey{}).has_value());
}

TEST(PackedKeyCodecTest, WidthsSplitRemainingBitsEvenly) {
  DictionaryArena arena;
  Dictionary& d = arena.Add();
  // 3 ints: (128 - 0) / 3 = 42 bits each, capped at 63.
  PackedKeyCodec three = IntCodec(3);
  EXPECT_EQ(three.width(0), 42);
  // 1 int: capped at 63, not 128.
  EXPECT_EQ(IntCodec(1).width(0), 63);
  // 2 strings + 1 int: (128 - 64) / 1 = 64 -> capped at 63.
  PackedKeyCodec mixed = PackedKeyCodec::ForTypes(
      {ValueType::kString, ValueType::kString, ValueType::kInt64},
      {&d, &d, nullptr});
  EXPECT_EQ(mixed.width(0), 32);
  EXPECT_EQ(mixed.width(1), 32);
  EXPECT_EQ(mixed.width(2), 63);
}

TEST(PackedKeyCodecTest, EncodeAgreesWithGroupKeyEquality) {
  // Property: over a grid of int keys, packed equality must match boxed
  // Value equality exactly, and equal keys must produce equal hashes.
  PackedKeyCodec codec = IntCodec(2);
  ASSERT_TRUE(codec.packable());
  PackedKeyHash hasher;
  std::vector<GroupKey> keys;
  for (int64_t a = 0; a < 16; ++a) {
    for (int64_t b = 0; b < 16; ++b) {
      keys.push_back({Value::Int64(a), Value::Int64(b)});
    }
  }
  for (const GroupKey& x : keys) {
    const std::optional<PackedKey> px = codec.EncodeKey(x);
    ASSERT_TRUE(px.has_value());
    for (const GroupKey& y : keys) {
      const std::optional<PackedKey> py = codec.EncodeKey(y);
      ASSERT_TRUE(py.has_value());
      EXPECT_EQ(x == y, *px == *py);
      if (x == y) {
        EXPECT_EQ(hasher(*px), hasher(*py));
      }
    }
  }
}

TEST(PackedKeyCodecTest, DecodeRoundTripsEncodableKeys) {
  DictionaryArena arena;
  Dictionary& d = arena.Add();
  PackedKeyCodec codec = PackedKeyCodec::ForTypes(
      {ValueType::kString, ValueType::kInt64}, {&d, nullptr});
  ASSERT_TRUE(codec.packable());
  const GroupKey key = {Value::String("Boston"), Value::Int64(42)};
  const std::optional<PackedKey> pk = codec.EncodeKey(key);
  ASSERT_TRUE(pk.has_value());
  EXPECT_EQ(codec.Decode(*pk), key);
}

TEST(PackedKeyCodecTest, NullsRoundTripPerColumn) {
  DictionaryArena arena;
  Dictionary& d = arena.Add();
  PackedKeyCodec codec = PackedKeyCodec::ForTypes(
      {ValueType::kString, ValueType::kInt64}, {&d, nullptr});
  const GroupKey some_null = {Value::Null(), Value::Int64(7)};
  const GroupKey all_null = {Value::Null(), Value::Null()};
  const GroupKey no_null = {Value::String("x"), Value::Int64(7)};
  const auto p1 = codec.EncodeKey(some_null);
  const auto p2 = codec.EncodeKey(all_null);
  const auto p3 = codec.EncodeKey(no_null);
  ASSERT_TRUE(p1 && p2 && p3);
  EXPECT_NE(*p1, *p2);
  EXPECT_NE(*p1, *p3);
  EXPECT_EQ(codec.Decode(*p1), some_null);
  EXPECT_EQ(codec.Decode(*p2), all_null);
}

TEST(PackedKeyCodecTest, OutOfRangeValuesEscape) {
  PackedKeyCodec codec = IntCodec(3);  // 42 bits per column
  const uint64_t null_code = (uint64_t{1} << 42) - 1;
  auto key = [](int64_t v) {
    return GroupKey{Value::Int64(v), Value::Int64(0), Value::Int64(0)};
  };
  // Largest encodable value is null_code - 1; null_code itself is the
  // NULL sentinel and anything at or above it escapes.
  EXPECT_TRUE(codec.EncodeKey(key(static_cast<int64_t>(null_code) - 1)));
  EXPECT_FALSE(codec.EncodeKey(key(static_cast<int64_t>(null_code))));
  EXPECT_FALSE(codec.EncodeKey(key(int64_t{1} << 50)));
  EXPECT_FALSE(codec.EncodeKey(key(-1)));
  EXPECT_TRUE(codec.EncodeKey(key(0)));
}

TEST(PackedKeyCodecTest, WidenedDoublesEncodeLikeTheirInt64Twins) {
  // Value::operator== makes Int64(7) == Double(7.0); the codec must
  // agree, or a group keyed by 7.0 would split from the group keyed 7.
  PackedKeyCodec codec = IntCodec(1);
  const auto from_int = codec.EncodeKey({Value::Int64(7)});
  const auto from_double = codec.EncodeKey({Value::Double(7.0)});
  ASSERT_TRUE(from_int && from_double);
  EXPECT_EQ(*from_int, *from_double);
  // Non-integral, negative, NaN, and huge doubles all escape.
  EXPECT_FALSE(codec.EncodeKey({Value::Double(7.5)}));
  EXPECT_FALSE(codec.EncodeKey({Value::Double(-1.0)}));
  EXPECT_FALSE(codec.EncodeKey({Value::Double(0.0 / 0.0)}));
  EXPECT_FALSE(codec.EncodeKey({Value::Double(1e30)}));
}

TEST(PackedKeyCodecTest, TypeMismatchedValuesEscape) {
  DictionaryArena arena;
  Dictionary& d = arena.Add();
  PackedKeyCodec codec =
      PackedKeyCodec::ForTypes({ValueType::kString}, {&d});
  EXPECT_TRUE(codec.EncodeKey({Value::String("ok")}));
  // An int64 in a string column has no dictionary code: boxed path.
  EXPECT_FALSE(codec.EncodeKey({Value::Int64(3)}));
}

TEST(PackedKeyCodecTest, EncodeRowMatchesEncodeKey) {
  PackedKeyCodec codec = IntCodec(2);
  const Row row = {Value::Int64(99), Value::Int64(5), Value::Int64(17)};
  const std::vector<size_t> indices = {2, 0};
  const auto via_row = codec.EncodeRow(row, indices);
  const auto via_key = codec.EncodeKey(ExtractKey(row, indices));
  ASSERT_TRUE(via_row && via_key);
  EXPECT_EQ(*via_row, *via_key);
}

TEST(PackedKeyCodecTest, ForColumnsReadsTypesFromSchema) {
  Schema schema;
  schema.AddColumn("storeID", ValueType::kInt64);
  schema.AddColumn("city", ValueType::kString);
  schema.AddColumn("total", ValueType::kDouble);
  DictionaryArena arena;
  PackedKeyCodec codec = PackedKeyCodec::ForColumns(
      schema, {0, 1}, [&](const Column&) { return &arena.Add(); });
  EXPECT_TRUE(codec.packable());
  // Including the double column disqualifies the layout.
  PackedKeyCodec with_double = PackedKeyCodec::ForColumns(
      schema, {0, 2}, [&](const Column&) { return &arena.Add(); });
  EXPECT_FALSE(with_double.packable());
}

TEST(PackedKeyCodecTest, EncodeColumnsRangeMatchesEncodeColumnsPerRow) {
  // id: int64 with NULLs and a negative (escapes); city: dictionary
  // column; tag: demoted to boxed by one int64 value; wide: int64 values
  // that need more than 32 bits, so three-column keys straddle the
  // lo/hi boundary.
  Schema schema;
  schema.AddColumn("id", ValueType::kInt64);
  schema.AddColumn("city", ValueType::kString);
  schema.AddColumn("tag", ValueType::kString);
  schema.AddColumn("wide", ValueType::kInt64);
  Table t(schema, "t");
  auto label = [](char prefix, int64_t n) {
    std::string s(1, prefix);
    s += std::to_string(n);
    return Value::String(s);
  };
  for (int64_t r = 0; r < 40; ++r) {
    t.Insert({r % 7 == 0 ? Value::Null() : Value::Int64(r % 9 == 0 ? -r : r),
              r % 5 == 0 ? Value::Null() : label('c', r % 4),
              r == 13 ? Value::Int64(13) : label('t', r % 3),
              Value::Int64((int64_t{1} << 40) + r)});
  }
  ASSERT_TRUE(t.column_data(2).boxed());
  DictionaryArena arena;
  const std::vector<std::vector<size_t>> layouts = {
      {0}, {1}, {2}, {0, 1}, {1, 0, 3}, {3, 2, 0}};
  for (const std::vector<size_t>& cols : layouts) {
    const PackedKeyCodec codec =
        PackedKeyCodec::ForTableColumns(t, cols, &arena);
    ASSERT_TRUE(codec.packable());
    for (const auto mode : {PackedKeyCodec::StringMode::kLookupOnly,
                            PackedKeyCodec::StringMode::kIntern}) {
      const size_t begin = 3;
      const size_t end = 37;
      std::vector<PackedKey> keys(end - begin);
      std::vector<PackedKeyCodec::ColumnarEncode> outcome(end - begin);
      codec.EncodeColumnsRange(t, cols, begin, end, mode, keys.data(),
                               outcome.data());
      for (size_t row = begin; row < end; ++row) {
        PackedKey expected;
        const PackedKeyCodec::ColumnarEncode enc =
            codec.EncodeColumns(t, cols, row, mode, &expected);
        SCOPED_TRACE("row " + std::to_string(row));
        ASSERT_EQ(outcome[row - begin], enc);
        if (enc == PackedKeyCodec::ColumnarEncode::kPacked) {
          EXPECT_EQ(keys[row - begin], expected);
        }
      }
    }
  }
}

TEST(PackedKeyCodecTest, DisablingTheToggleForcesTheBoxedPath) {
  ASSERT_TRUE(PackedKeysEnabled());
  SetPackedKeysEnabled(false);
  EXPECT_FALSE(IntCodec(2).packable());
  SetPackedKeysEnabled(true);
  EXPECT_TRUE(IntCodec(2).packable());
}

TEST(PackedKeyHashTest, DenseKeyGridsHashDistinctAndSpread) {
  // Same guarantee GroupKeyHash provides for the boxed path: retail-
  // shaped dense int grids must not collide or cluster under masking.
  PackedKeyCodec codec = IntCodec(2);
  PackedKeyHash hasher;
  std::unordered_set<size_t> hashes;
  std::vector<size_t> load(1024, 0);
  size_t worst = 0;
  for (int64_t a = 0; a < 64; ++a) {
    for (int64_t b = 0; b < 64; ++b) {
      const auto pk = codec.EncodeKey({Value::Int64(a), Value::Int64(b)});
      ASSERT_TRUE(pk.has_value());
      const size_t h = hasher(*pk);
      hashes.insert(h);
      size_t& slot = load[h & 1023];
      ++slot;
      if (slot > worst) worst = slot;
    }
  }
  EXPECT_EQ(hashes.size(), 64u * 64u);
  EXPECT_LE(worst, 16u);  // 4096 keys / 1024 buckets: ideal 4
}

}  // namespace
}  // namespace sdelta::rel
