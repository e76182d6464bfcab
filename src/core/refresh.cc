#include "core/refresh.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "core/propagate.h"
#include "core/view_def.h"
#include "exec/parallel_for.h"
#include "obs/trace.h"
#include "relational/flat_hash.h"
#include "relational/group_key.h"
#include "relational/operators.h"
#include "relational/packed_key.h"

namespace sdelta::core {

using rel::GroupKey;
using rel::Row;
using rel::Table;
using rel::Value;

namespace {

/// Column bookkeeping for one refresh.
struct AggregateLayout {
  rel::AggregateKind kind;
  size_t index;            ///< column index in the physical row
  size_t companion_index;  ///< index of the COUNT(e) companion column
};

struct RefreshLayout {
  size_t num_groups;
  size_t arity;  ///< summary-table columns (delta rows may carry extras)
  size_t count_star_index;
  /// Index of the hidden kTaintedColumn in delta rows, or npos.
  size_t tainted_index = static_cast<size_t>(-1);
  bool has_minmax = false;
  std::vector<AggregateLayout> aggregates;

  /// Whether the delta group may contain deletion contributions. Deltas
  /// without the marker column (hand-built or legacy) are conservatively
  /// treated as tainted.
  bool Tainted(const Row& delta_row) const {
    if (tainted_index == static_cast<size_t>(-1)) return true;
    const Value& v = delta_row[tainted_index];
    return !v.is_null() && v.as_int64() != 0;
  }
};

RefreshLayout MakeLayout(const SummaryTable& view,
                         const rel::Table& summary_delta) {
  RefreshLayout layout;
  const AugmentedView& def = view.def();
  layout.num_groups = view.num_group_columns();
  layout.arity = view.schema().NumColumns();
  layout.count_star_index = view.schema().Resolve(def.count_star_column);
  if (auto idx = summary_delta.schema().IndexOf(kTaintedColumn)) {
    layout.tainted_index = *idx;
  }
  for (const rel::AggregateSpec& a : def.physical.aggregates) {
    AggregateLayout al;
    al.kind = a.kind;
    al.index = view.schema().Resolve(a.output_name);
    al.companion_index =
        view.schema().Resolve(def.companion_count.at(a.output_name));
    layout.has_minmax |= (a.kind == rel::AggregateKind::kMin ||
                          a.kind == rel::AggregateKind::kMax);
    layout.aggregates.push_back(al);
  }
  return layout;
}

int64_t AsCount(const Value& v) {
  if (v.is_null()) return 0;
  return v.as_int64();
}

Value AddIgnoringNull(const Value& a, const Value& b) {
  if (a.is_null()) return b;
  if (b.is_null()) return a;
  return Value::Add(a, b);
}

Value MinIgnoringNull(const Value& a, const Value& b) {
  if (a.is_null()) return b;
  if (b.is_null()) return a;
  return Value::Compare(a, b) <= 0 ? a : b;
}

Value MaxIgnoringNull(const Value& a, const Value& b) {
  if (a.is_null()) return b;
  if (b.is_null()) return a;
  return Value::Compare(a, b) >= 0 ? a : b;
}

/// Figure 7's recompute test for one summary tuple against one delta
/// tuple: does some MIN/MAX possibly need recomputation from base data?
bool NeedsRecompute(const RefreshLayout& layout, const Row& old_row,
                    const Row& delta_row) {
  for (const AggregateLayout& al : layout.aggregates) {
    if (al.kind != rel::AggregateKind::kMin &&
        al.kind != rel::AggregateKind::kMax) {
      continue;
    }
    const Value& old_m = old_row[al.index];
    const Value& delta_m = delta_row[al.index];
    if (old_m.is_null() || delta_m.is_null()) continue;
    const int64_t remaining = AsCount(old_row[al.companion_index]) +
                              AsCount(delta_row[al.companion_index]);
    if (remaining <= 0) continue;  // all values gone -> NULL, no recompute
    const int cmp = Value::Compare(delta_m, old_m);
    if (al.kind == rel::AggregateKind::kMin ? cmp <= 0 : cmp >= 0) {
      return true;
    }
  }
  return false;
}

/// Figure 7's in-place update: combines one summary row with one delta
/// row (no MIN/MAX recompute needed). Writes the result into `old_row`.
void UpdateInPlace(const RefreshLayout& layout, Row& old_row,
                   const Row& delta_row) {
  // Read all companion totals before any column is overwritten.
  std::vector<int64_t> companion_total(layout.aggregates.size());
  for (size_t i = 0; i < layout.aggregates.size(); ++i) {
    const AggregateLayout& al = layout.aggregates[i];
    companion_total[i] = AsCount(old_row[al.companion_index]) +
                         AsCount(delta_row[al.companion_index]);
  }
  std::vector<Value> new_values(layout.aggregates.size());
  for (size_t i = 0; i < layout.aggregates.size(); ++i) {
    const AggregateLayout& al = layout.aggregates[i];
    const Value& old_v = old_row[al.index];
    const Value& delta_v = delta_row[al.index];
    const bool is_count = al.kind == rel::AggregateKind::kCount ||
                          al.kind == rel::AggregateKind::kCountStar;
    if (companion_total[i] == 0) {
      // No values remain for this expression: COUNT columns read 0,
      // everything else reads NULL.
      new_values[i] = is_count ? Value::Int64(0) : Value::Null();
      continue;
    }
    switch (al.kind) {
      case rel::AggregateKind::kCountStar:
      case rel::AggregateKind::kCount:
      case rel::AggregateKind::kSum:
        new_values[i] = AddIgnoringNull(old_v, delta_v);
        break;
      case rel::AggregateKind::kMin:
        new_values[i] = MinIgnoringNull(old_v, delta_v);
        break;
      case rel::AggregateKind::kMax:
        new_values[i] = MaxIgnoringNull(old_v, delta_v);
        break;
      case rel::AggregateKind::kAvg:
        throw std::logic_error("AVG in physical summary table");
    }
  }
  for (size_t i = 0; i < layout.aggregates.size(); ++i) {
    old_row[layout.aggregates[i].index] = std::move(new_values[i]);
  }
}

using PackedMap = rel::FlatHashMap<rel::PackedKey, size_t, rel::PackedKeyHash>;
using BoxedMap = std::unordered_map<GroupKey, size_t, rel::GroupKeyHash>;
using StringMode = rel::PackedKeyCodec::StringMode;
using ColumnarEncode = rel::PackedKeyCodec::ColumnarEncode;

/// Key-index operations of one recompute, split by packed/boxed path.
struct KeyOps {
  uint64_t packed = 0;
  uint64_t fallback = 0;
};

/// The value mapped to `key`, or nullptr. Unlike FlatHashMap::Find it
/// keeps no probe accounting, so concurrent morsels may share the map.
const size_t* FindShared(const PackedMap& map, const rel::PackedKey& key) {
  const size_t* found = nullptr;
  map.ForEachEqual(key, [&found](const size_t& v) {
    found = &v;
    return true;
  });
  return found;
}

/// Lookup-only encodes of fact rows [begin, end) through `codec`, or
/// kEscaped for every row when the codec does not pack.
void EncodeRange(const rel::PackedKeyCodec& codec, const Table& fact,
                 const std::vector<size_t>& cols, size_t begin, size_t end,
                 std::vector<rel::PackedKey>* keys,
                 std::vector<ColumnarEncode>* outcome) {
  keys->resize(end - begin);
  outcome->assign(end - begin, ColumnarEncode::kEscaped);
  if (codec.packable()) {
    codec.EncodeColumnsRange(fact, cols, begin, end, StringMode::kLookupOnly,
                             keys->data(), outcome->data());
  }
}

/// Per-join lookup: dim key value -> dim row (FK joins are 1:1). The
/// single-column key packs through a codec over the dim key column —
/// probes then encode the fact FK value instead of boxing it into a
/// one-element GroupKey per fact row. NULLs encode to the codec's null
/// sentinel, preserving the historical NULL-matches-NULL behaviour of
/// this lookup (unlike HashJoin, which skips NULL keys).
struct DimLookup {
  const Table* dim;
  size_t fact_col;                   // index in fact schema
  std::vector<size_t> fact_key_idx;  // {fact_col}, for EncodeColumns
  std::vector<size_t> carried;  // non-key dim columns, in schema order
  rel::PackedKeyCodec codec;
  PackedMap packed;
  BoxedMap boxed;
  /// Each dim row's packed key, or nullopt where it escapes the codec.
  std::vector<std::optional<rel::PackedKey>> row_key;

  /// The dim row fact row `fr` joins to, or nullptr (dangling FK),
  /// tallied into `ops` when it is non-null. Read-only, so concurrent
  /// morsels may call it.
  const size_t* Find(const Table& fact, size_t fr, KeyOps* ops) const {
    rel::PackedKey pk;
    const ColumnarEncode enc =
        codec.packable() ? codec.EncodeColumns(fact, fact_key_idx, fr,
                                               StringMode::kLookupOnly, &pk)
                         : ColumnarEncode::kEscaped;
    if (ops != nullptr) {
      ++(enc == ColumnarEncode::kEscaped ? ops->fallback : ops->packed);
    }
    return FindEncoded(fact, fr, enc, pk);
  }

  /// Find, given the FK's lookup-only encoding.
  const size_t* FindEncoded(const Table& fact, size_t fr, ColumnarEncode enc,
                            const rel::PackedKey& pk) const {
    if (enc == ColumnarEncode::kPacked) return FindShared(packed, pk);
    // An unknown string equals no dim key: every dim key was interned
    // when the lookup was built.
    if (enc == ColumnarEncode::kUnknownString) return nullptr;
    const auto it = boxed.find(GroupKey{fact.ValueAt(fr, fact_col)});
    return it == boxed.end() ? nullptr : &it->second;
  }
};

DimLookup MakeDimLookup(const rel::Catalog& catalog, const Table& fact,
                        const DimensionJoin& j) {
  DimLookup dl;
  dl.dim = &catalog.GetTable(j.dim_table);
  dl.fact_col = fact.schema().Resolve(j.fact_column);
  const size_t dim_key_col = dl.dim->schema().Resolve(j.dim_column);
  dl.fact_key_idx = {dl.fact_col};
  const std::vector<size_t> dim_key_idx = {dim_key_col};
  for (size_t c = 0; c < dl.dim->schema().NumColumns(); ++c) {
    if (c != dim_key_col) dl.carried.push_back(c);
  }
  dl.codec = rel::PackedKeyCodec::ForColumns(
      dl.dim->schema(), dim_key_idx, [&catalog](const rel::Column& c) {
        return &catalog.dictionaries().ForColumn(c.name);
      });
  if (dl.codec.packable()) {
    dl.packed.Reserve(dl.dim->NumRows());
  } else {
    dl.boxed.reserve(dl.dim->NumRows());
  }
  dl.row_key.resize(dl.dim->NumRows());
  for (size_t r = 0; r < dl.dim->NumRows(); ++r) {
    rel::PackedKey pk;
    const bool packed =
        dl.codec.packable() &&
        dl.codec.EncodeColumns(*dl.dim, dim_key_idx, r, StringMode::kIntern,
                               &pk) == ColumnarEncode::kPacked;
    if (packed) {
      dl.packed.FindOrInsert(pk, r);  // keep-first, like emplace did
      dl.row_key[r] = pk;
    } else {
      dl.boxed.emplace(GroupKey{dl.dim->ValueAt(r, dim_key_col)}, r);
    }
  }
  return dl;
}

/// One morsel's recompute survivors: (fact row, entry) in row order.
struct Survivors {
  std::vector<std::pair<size_t, size_t>> rows;
  KeyOps ops;
};

/// Stage one of the batched recompute: selects the fact rows whose group
/// is in the recompute set, reading the group key from typed columns
/// instead of boxing the joined row.
///
/// The group key splits into parts: the fact-side group columns, then
/// one part per joined dimension that supplies group columns. Each
/// dimension row maps to a small code for its projection onto the
/// view's group columns, so a fact row resolves a dimension part through
/// its FK. Parts fold left to right into prefix codes, keyed {prefix,
/// part code}; the last part's map yields the entry index. Only groups
/// in the recompute set are ever coded, so every map holds O(recompute
/// set) entries and the per-dimension code arrays O(dim rows).
///
/// In front of that exact chain sits a Bloom filter over row
/// signatures — the packed fact-side key and the packed FK of the first
/// grouping dimension — holding every signature a recompute key can
/// match. Most rows of other groups fail it with one bit test and no
/// probe, branch-free; the rest take the exact chain.
class RecomputeFilter {
 public:
  RecomputeFilter(const Table& fact, const std::vector<DimLookup>& lookups,
                  const std::vector<size_t>& group_idx,
                  const std::vector<const GroupKey*>& keys);
  RecomputeFilter(const RecomputeFilter&) = delete;
  RecomputeFilter& operator=(const RecomputeFilter&) = delete;

  /// Appends (fact row, entry) for every row of [begin, end) whose group
  /// is being recomputed, in row order. Read-only, so concurrent morsels
  /// may call it.
  void Select(size_t begin, size_t end, Survivors* out) const;

 private:
  static constexpr uint32_t kNoCode = static_cast<uint32_t>(-1);

  /// One joined dimension that supplies group columns.
  struct DimPart {
    size_t lookup;                   // index into the DimLookups
    std::vector<size_t> key_pos;     // positions in the group key
    std::vector<size_t> dim_cols;    // matching dim table columns
    std::vector<uint32_t> row_code;  // dim row -> code, or kNoCode
    PackedMap next;                  // {prefix, code} -> next prefix
  };

  void BuildPrefilter(
      std::vector<std::pair<rel::PackedKey, uint32_t>> reachable);
  /// Multiply-shift hash of a signature onto the Bloom's bits.
  size_t Bit(const rel::PackedKey& fact_key,
             const rel::PackedKey& fk_key) const {
    const uint64_t h = (fact_key.lo * 0x9e3779b97f4a7c15ULL) ^
                       (fact_key.hi * 0xc2b2ae3d27d4eb4fULL) ^
                       (fk_key.lo * 0x165667b19e3779f9ULL) ^
                       (fk_key.hi * 0xd6e8feb86659fd93ULL);
    return (h * 0xff51afd7ed558ccdULL) >> bloom_shift_;
  }
  bool MayContain(const rel::PackedKey& fact_key,
                  const rel::PackedKey& fk_key) const {
    const size_t bit = Bit(fact_key, fk_key);
    return (bloom_[bit >> 6] >> (bit & 63)) & 1;
  }
  const size_t* FindFact(size_t fr, ColumnarEncode enc,
                         const rel::PackedKey& pk) const;

  const Table& fact_;
  const std::vector<DimLookup>& lookups_;
  std::vector<size_t> fact_pos_;   // group-key positions read from fact
  std::vector<size_t> fact_cols_;  // their fact columns
  rel::DictionaryArena arena_;     // backs fact_codec_'s unshared strings
  rel::PackedKeyCodec fact_codec_;
  PackedMap fact_packed_;  // fact-side key -> prefix
  BoxedMap fact_boxed_;    // the same, for keys that escape the codec
  std::vector<DimPart> parts_;
  std::vector<uint64_t> bloom_;
  unsigned bloom_shift_ = 0;  // 64 - log2(Bloom bits)
};

RecomputeFilter::RecomputeFilter(const Table& fact,
                                 const std::vector<DimLookup>& lookups,
                                 const std::vector<size_t>& group_idx,
                                 const std::vector<const GroupKey*>& keys)
    : fact_(fact), lookups_(lookups) {
  // The joined schema is the fact columns, then each join's carried
  // columns.
  const size_t fact_width = fact.schema().NumColumns();
  for (size_t p = 0; p < group_idx.size(); ++p) {
    if (group_idx[p] < fact_width) {
      fact_pos_.push_back(p);
      fact_cols_.push_back(group_idx[p]);
    }
  }
  size_t first = fact_width;  // joined index of the join's first column
  for (size_t d = 0; d < lookups.size(); ++d) {
    const std::vector<size_t>& carried = lookups[d].carried;
    DimPart part;
    part.lookup = d;
    for (size_t p = 0; p < group_idx.size(); ++p) {
      if (group_idx[p] >= first && group_idx[p] < first + carried.size()) {
        part.key_pos.push_back(p);
        part.dim_cols.push_back(carried[group_idx[p] - first]);
      }
    }
    if (!part.key_pos.empty()) parts_.push_back(std::move(part));
    first += carried.size();
  }
  // Codes copy straight out of dictionary-coded fact columns; encoding
  // a recompute key interns its strings, so a row string the dictionary
  // lacks can match no key.
  fact_codec_ = rel::PackedKeyCodec::ForTableColumns(fact, fact_cols_, &arena_);

  // Code every recompute key, and collect the (packed fact-side key,
  // first part's code) pairs the prefilter must let through.
  std::vector<std::unordered_map<GroupKey, uint32_t, rel::GroupKeyHash>>
      part_codes(parts_.size());
  std::vector<std::pair<rel::PackedKey, uint32_t>> reachable;
  size_t prefixes = 0;
  for (size_t e = 0; e < keys.size(); ++e) {
    const GroupKey& key = *keys[e];
    size_t prefix = 0;
    uint32_t first_code = 0;
    std::optional<rel::PackedKey> fact_key = rel::PackedKey{};
    if (!fact_pos_.empty()) {
      const size_t value = parts_.empty() ? e : prefixes;
      GroupKey fk;
      for (size_t p : fact_pos_) fk.push_back(key[p]);
      fact_key.reset();
      if (fact_codec_.packable()) fact_key = fact_codec_.EncodeKey(fk);
      bool inserted;
      if (fact_key.has_value()) {
        auto [slot, ins] = fact_packed_.FindOrInsert(*fact_key, value);
        prefix = *slot;
        inserted = ins;
      } else {
        auto [it, ins] = fact_boxed_.emplace(std::move(fk), value);
        prefix = it->second;
        inserted = ins;
      }
      if (inserted && !parts_.empty()) ++prefixes;
    }
    for (size_t i = 0; i < parts_.size(); ++i) {
      DimPart& part = parts_[i];
      GroupKey projection;
      for (size_t p : part.key_pos) projection.push_back(key[p]);
      const uint32_t code =
          part_codes[i]
              .emplace(std::move(projection),
                       static_cast<uint32_t>(part_codes[i].size()))
              .first->second;
      if (i == 0) first_code = code;
      const bool last = i + 1 == parts_.size();
      auto [slot, inserted] = part.next.FindOrInsert(
          rel::PackedKey{prefix, code}, last ? e : prefixes);
      if (inserted && !last) ++prefixes;
      prefix = *slot;
    }
    if (fact_key.has_value()) reachable.emplace_back(*fact_key, first_code);
  }
  for (size_t i = 0; i < parts_.size(); ++i) {
    DimPart& part = parts_[i];
    const Table& dim = *lookups[part.lookup].dim;
    part.row_code.assign(dim.NumRows(), kNoCode);
    GroupKey projection;
    for (size_t r = 0; r < dim.NumRows(); ++r) {
      projection.clear();
      for (size_t c : part.dim_cols) projection.push_back(dim.ValueAt(r, c));
      const auto it = part_codes[i].find(projection);
      if (it != part_codes[i].end()) part.row_code[r] = it->second;
    }
  }
  BuildPrefilter(std::move(reachable));
}

void RecomputeFilter::BuildPrefilter(
    std::vector<std::pair<rel::PackedKey, uint32_t>> reachable) {
  // Keys that differ only past the first dimension share a pair.
  std::sort(reachable.begin(), reachable.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.first.lo, a.first.hi, a.second) <
                     std::tie(b.first.lo, b.first.hi, b.second);
            });
  reachable.erase(std::unique(reachable.begin(), reachable.end()),
                  reachable.end());
  // Each reachable pair expands to the packed keys of the dim rows that
  // carry its code; without a grouping dimension, to the {} every row
  // reads in that place.
  std::vector<std::vector<rel::PackedKey>> rows_of_code;
  if (parts_.empty()) {
    rows_of_code = {{rel::PackedKey{}}};
  } else {
    const DimLookup& dl = lookups_[parts_[0].lookup];
    for (size_t r = 0; r < dl.row_key.size(); ++r) {
      const uint32_t code = parts_[0].row_code[r];
      if (code == kNoCode || !dl.row_key[r].has_value()) continue;
      if (code >= rows_of_code.size()) rows_of_code.resize(code + 1);
      rows_of_code[code].push_back(*dl.row_key[r]);
    }
  }
  size_t signatures = 0;
  for (const auto& [fact_key, code] : reachable) {
    if (code < rows_of_code.size()) signatures += rows_of_code[code].size();
  }
  // 32 bits per signature, at least 4096. A filter that would outgrow
  // the fact table lets every row through instead.
  size_t bits = 4096;
  while (bits < 32 * signatures) bits *= 2;
  const bool saturate = bits > std::max<size_t>(4096, fact_.NumRows());
  if (saturate) bits = 4096;
  bloom_.assign(bits / 64, saturate ? ~uint64_t{0} : 0);
  bloom_shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(bits));
  if (saturate) return;
  for (const auto& [fact_key, code] : reachable) {
    if (code >= rows_of_code.size()) continue;
    for (const rel::PackedKey& fk_key : rows_of_code[code]) {
      const size_t bit = Bit(fact_key, fk_key);
      bloom_[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
  }
}

const size_t* RecomputeFilter::FindFact(size_t fr, ColumnarEncode enc,
                                        const rel::PackedKey& pk) const {
  if (enc == ColumnarEncode::kPacked) return FindShared(fact_packed_, pk);
  // An unknown string is in no recompute key (they were interned).
  if (enc == ColumnarEncode::kUnknownString) return nullptr;
  GroupKey key;
  for (size_t c : fact_cols_) key.push_back(fact_.ValueAt(fr, c));
  const auto it = fact_boxed_.find(key);
  return it == fact_boxed_.end() ? nullptr : &it->second;
}

void RecomputeFilter::Select(size_t begin, size_t end, Survivors* out) const {
  const size_t n = end - begin;
  // The signature parts of every row; an absent part reads {}.
  std::vector<rel::PackedKey> fact_keys(n), fk_keys(n);
  std::vector<ColumnarEncode> fact_enc(n, ColumnarEncode::kPacked);
  std::vector<ColumnarEncode> fk_enc(n, ColumnarEncode::kPacked);
  if (!fact_cols_.empty()) {
    EncodeRange(fact_codec_, fact_, fact_cols_, begin, end, &fact_keys,
                &fact_enc);
  }
  if (!parts_.empty()) {
    const DimLookup& dl = lookups_[parts_[0].lookup];
    EncodeRange(dl.codec, fact_, dl.fact_key_idx, begin, end, &fk_keys,
                &fk_enc);
  }
  // Candidates, appended branch-free: a row whose part escapes the codec
  // always stays (the Bloom holds packed signatures only), a row with an
  // unknown string never matches.
  std::vector<size_t> cand(n);
  size_t m = 0;
  size_t escapes = 0;
  for (size_t k = 0; k < n; ++k) {
    const bool fact_escaped = fact_enc[k] == ColumnarEncode::kEscaped;
    const bool fk_escaped = fk_enc[k] == ColumnarEncode::kEscaped;
    const bool packed = fact_enc[k] == ColumnarEncode::kPacked &&
                        fk_enc[k] == ColumnarEncode::kPacked;
    escapes += fact_escaped + fk_escaped;
    cand[m] = k;
    m += fact_escaped || fk_escaped ||
         (packed && MayContain(fact_keys[k], fk_keys[k]));
  }
  // One key operation per row and encoded signature part.
  const size_t encoded =
      n * ((fact_cols_.empty() ? 0 : 1) + (parts_.empty() ? 0 : 1));
  out->ops.packed += encoded - escapes;
  out->ops.fallback += escapes;
  // The exact chain, in row order. It keeps no key tallies: which rows
  // reach it depends on Bloom false positives, and so on dictionary
  // codes, which may differ across thread counts.
  for (size_t i = 0; i < m; ++i) {
    const size_t k = cand[i];
    const size_t fr = begin + k;
    size_t prefix = 0;
    if (!fact_cols_.empty()) {
      const size_t* found = FindFact(fr, fact_enc[k], fact_keys[k]);
      if (found == nullptr) continue;
      prefix = *found;
    }
    bool matched = true;
    for (size_t j = 0; matched && j < parts_.size(); ++j) {
      const DimPart& part = parts_[j];
      const DimLookup& dl = lookups_[part.lookup];
      const size_t* row = j == 0
                              ? dl.FindEncoded(fact_, fr, fk_enc[k], fk_keys[k])
                              : dl.Find(fact_, fr, nullptr);
      const uint32_t code = row == nullptr ? kNoCode : part.row_code[*row];
      const size_t* next =
          code == kNoCode ? nullptr
                          : FindShared(part.next, rel::PackedKey{prefix, code});
      matched = next != nullptr;
      if (matched) prefix = *next;
    }
    if (matched) out->rows.emplace_back(fr, prefix);
  }
}

/// Recomputes every group in `keys` (assumed distinct — summary-delta
/// keys are grouped) from the (already updated) base data and writes
/// the fresh rows into the summary table, in two stages:
///   1. a typed filter (RecomputeFilter) selects the fact rows whose
///      group is in the recompute set, one morsel at a time on
///      `pool` when set, survivors concatenated in morsel order;
///   2. only those rows are boxed, joined, filtered by WHERE and
///      accumulated, in ascending fact-row order — the order the
///      accumulators always saw, so double SUMs stay byte-identical.
void BatchRecompute(const rel::Catalog& catalog, SummaryTable& view,
                    const std::vector<GroupKey>& keys, exec::ThreadPool* pool,
                    RefreshStats* stats) {
  if (keys.empty()) return;
  const ViewDef& def = view.def().physical;
  const Table& fact = catalog.GetTable(def.fact_table);
  std::vector<DimLookup> dims;
  for (const DimensionJoin& j : def.joins) {
    dims.push_back(MakeDimLookup(catalog, fact, j));
  }

  // Bind the view's names against the joined schema.
  const rel::Schema joined = JoinedSchema(catalog, def);
  std::vector<size_t> group_idx;
  for (const std::string& g : def.group_by) {
    group_idx.push_back(joined.Resolve(g));
  }
  std::vector<rel::BoundExpression> agg_args;
  for (const rel::AggregateSpec& a : def.aggregates) {
    if (a.argument.has_value()) {
      agg_args.push_back(a.argument->Bind(joined));
    } else {
      agg_args.emplace_back();
    }
  }
  std::optional<rel::BoundExpression> where;
  if (def.where.has_value()) where = def.where->Bind(joined);
  // Survivors box only the joined cells WHERE and the aggregate
  // arguments read; the others stay NULL.
  std::vector<bool> read(joined.NumColumns(), false);
  auto mark_read = [&](const rel::Expression& e) {
    for (const std::string& c : e.ReferencedColumns()) {
      read[joined.Resolve(c)] = true;
    }
  };
  for (const rel::AggregateSpec& a : def.aggregates) {
    if (a.argument.has_value()) mark_read(*a.argument);
  }
  if (def.where.has_value()) mark_read(*def.where);

  // Deduplicate through the view's own codec; first-appearance entries
  // keep the original GroupKeys for the writeback below, in the
  // deterministic order of `keys`.
  const rel::PackedKeyCodec& vcodec = view.codec();
  PackedMap gpacked;
  BoxedMap gboxed;
  std::vector<std::pair<GroupKey, std::vector<rel::Accumulator>>> entries;
  entries.reserve(keys.size());
  for (const GroupKey& k : keys) {
    std::optional<rel::PackedKey> pk;
    if (vcodec.packable()) pk = vcodec.EncodeKey(k);
    const bool inserted =
        pk.has_value() ? gpacked.FindOrInsert(*pk, entries.size()).second
                       : gboxed.emplace(k, entries.size()).second;
    if (!inserted) continue;
    std::vector<rel::Accumulator> accs;
    for (const rel::AggregateSpec& a : def.aggregates) {
      accs.emplace_back(a.kind);
    }
    entries.emplace_back(k, std::move(accs));
  }

  std::vector<const GroupKey*> entry_keys;
  for (const auto& entry : entries) entry_keys.push_back(&entry.first);
  const RecomputeFilter filter(fact, dims, group_idx, entry_keys);

  const exec::MorselPlan plan = exec::MorselPlan::For(fact.NumRows());
  std::vector<Survivors> morsels(plan.morsels.size());
  exec::ParallelFor(pool, plan, [&](size_t begin, size_t end, size_t m) {
    filter.Select(begin, end, &morsels[m]);
  });

  KeyOps ops;
  size_t aggregated = 0;
  const size_t fact_cols = fact.schema().NumColumns();
  Row joined_row;
  for (const Survivors& s : morsels) {
    ops.packed += s.ops.packed;
    ops.fallback += s.ops.fallback;
    for (const auto& [fr, e] : s.rows) {
      joined_row.clear();
      for (size_t c = 0; c < fact_cols; ++c) {
        joined_row.push_back(read[c] ? fact.ValueAt(fr, c) : Value::Null());
      }
      bool matched = true;
      for (const DimLookup& dl : dims) {
        const size_t* pos = dl.Find(fact, fr, &ops);
        if (pos == nullptr) {
          matched = false;
          break;
        }
        for (size_t c : dl.carried) {
          joined_row.push_back(read[joined_row.size()]
                                   ? dl.dim->ValueAt(*pos, c)
                                   : Value::Null());
        }
      }
      if (!matched) continue;
      if (where.has_value() && !where->EvalPredicate(joined_row)) continue;
      ++aggregated;
      std::vector<rel::Accumulator>& accs = entries[e].second;
      for (size_t i = 0; i < def.aggregates.size(); ++i) {
        if (def.aggregates[i].kind == rel::AggregateKind::kCountStar) {
          accs[i].Add(Value::Null());
        } else {
          accs[i].Add(agg_args[i].Eval(joined_row));
        }
      }
    }
  }
  stats->recompute_scan_rows += fact.NumRows();
  stats->recompute_rows_aggregated += aggregated;
  stats->key_packed_ops += ops.packed;
  stats->key_fallback_ops += ops.fallback;

  for (auto& [key, accs] : entries) {
    Row fresh = key;
    bool any_rows = false;
    for (size_t i = 0; i < accs.size(); ++i) {
      Value v = accs[i].Result();
      if (def.aggregates[i].kind == rel::AggregateKind::kCountStar &&
          !v.is_null() && v.as_int64() > 0) {
        any_rows = true;
      }
      fresh.push_back(std::move(v));
    }
    Row* row = view.FindMutable(key);
    if (!any_rows) {
      // The group vanished from base data; a consistent delta would have
      // deleted it via COUNT(*), so treat as inconsistency.
      throw std::runtime_error(
          "refresh: recomputed group has no base rows in view " +
          view.name());
    }
    if (row == nullptr) {
      view.Insert(std::move(fresh));
    } else {
      *row = std::move(fresh);
    }
    ++stats->recomputed_groups;
  }
}

}  // namespace

void RefreshStats::EmitTo(obs::MetricsRegistry& metrics) const {
  metrics.Add("refresh.inserts", inserted);
  metrics.Add("refresh.deletes", deleted);
  metrics.Add("refresh.updates", updated);
  metrics.Add("refresh.recomputed_groups", recomputed_groups);
  metrics.Add("refresh.recompute_scan_rows", recompute_scan_rows);
  metrics.Add("refresh.recompute_rows_aggregated", recompute_rows_aggregated);
  metrics.Add("refresh.minmax_recomputes", minmax_recomputes);
  // Shared with propagate's per-operator key tallies, so the warehouse
  // can derive one batch-wide key.packed_ratio gauge.
  metrics.Add("key.packed_rows", key_packed_ops);
  metrics.Add("key.fallback_rows", key_fallback_ops);
}

RefreshStats Refresh(const rel::Catalog& catalog, SummaryTable& view,
                     const rel::Table& summary_delta,
                     const RefreshOptions& options,
                     const exec::Context& ctx) {
  const size_t arity = view.schema().NumColumns();
  const size_t delta_arity = summary_delta.schema().NumColumns();
  const bool has_taint =
      summary_delta.schema().IndexOf(kTaintedColumn).has_value();
  if (delta_arity != arity && !(has_taint && delta_arity == arity + 1)) {
    throw std::invalid_argument(
        "summary-delta arity does not match summary table " + view.name());
  }
  obs::TraceSpan span(ctx.tracer, "refresh.view");
  span.Attr("view", view.name());
  span.Attr("delta_rows", static_cast<uint64_t>(summary_delta.NumRows()));
  const uint64_t packed_before = view.packed_key_ops();
  const uint64_t fallback_before = view.fallback_key_ops();
  const rel::ProbeStats probes_before = view.probe_stats();
  RefreshStats stats;
  const RefreshLayout layout = MakeLayout(view, summary_delta);
  // Delta keys are grouped (distinct), so a plain vector is the
  // recompute set — in delta order, which keeps the batch-recompute
  // writeback deterministic.
  std::vector<GroupKey> recompute;
  GroupKey key;  // scratch, reused across delta rows

  for (size_t ti = 0; ti < summary_delta.NumRows(); ++ti) {
    const Row t = summary_delta.RowAt(ti);
    key.assign(t.begin(), t.begin() + layout.num_groups);
    Row* old_row = view.FindMutable(key);
    if (old_row == nullptr) {
      const int64_t count = AsCount(t[layout.count_star_index]);
      if (count < 0) {
        throw std::runtime_error(
            "refresh: delta deletes from non-existent group in view " +
            view.name());
      }
      if (count == 0) {
        // A net no-op for a group that never existed (e.g. a fact row
        // inserted while its dimension row moved away in the same
        // batch): every aggregate delta cancels; nothing to apply.
        continue;
      }
      if (layout.has_minmax && layout.Tainted(t)) {
        // A freshly appearing group whose delta mixes insertions and
        // deletions (dimension moves): the delta MIN/MAX may reflect
        // rows that did not survive — recompute from base data.
        recompute.push_back(std::move(key));
        continue;
      }
      view.Insert(Row(t.begin(), t.begin() + layout.arity));
      ++stats.inserted;
      continue;
    }
    const int64_t count_after = AsCount((*old_row)[layout.count_star_index]) +
                                AsCount(t[layout.count_star_index]);
    if (count_after < 0) {
      throw std::runtime_error(
          "refresh: COUNT(*) would go negative in view " + view.name());
    }
    if (count_after == 0) {
      view.Erase(key);
      ++stats.deleted;
      continue;
    }
    const bool may_have_deletions =
        !options.trust_untainted_minmax || layout.Tainted(t);
    if (may_have_deletions && NeedsRecompute(layout, *old_row, t)) {
      ++stats.minmax_recomputes;
      recompute.push_back(std::move(key));
      continue;
    }
    UpdateInPlace(layout, *old_row, t);
    ++stats.updated;
  }

  BatchRecompute(catalog, view, recompute, ctx.pool, &stats);
  // Fold this refresh's summary-table index traffic into the stats (the
  // dim-lookup and recompute-set probes were already counted inside
  // BatchRecompute).
  stats.key_packed_ops += view.packed_key_ops() - packed_before;
  stats.key_fallback_ops += view.fallback_key_ops() - fallback_before;
  if (ctx.metrics != nullptr) {
    const rel::ProbeStats probes_after = view.probe_stats();
    const uint64_t ops = probes_after.ops - probes_before.ops;
    if (ops > 0) {
      const uint64_t steps = probes_after.steps - probes_before.steps;
      ctx.metrics->Observe(
          "hash.probe_len",
          static_cast<double>(steps) / static_cast<double>(ops));
    }
  }
  span.Attr("updated", static_cast<uint64_t>(stats.updated));
  span.Attr("inserted", static_cast<uint64_t>(stats.inserted));
  span.Attr("deleted", static_cast<uint64_t>(stats.deleted));
  span.Attr("minmax_recomputes",
            static_cast<uint64_t>(stats.minmax_recomputes));
  span.Attr("recompute_scan_rows",
            static_cast<uint64_t>(stats.recompute_scan_rows));
  span.Attr("recompute_rows_aggregated",
            static_cast<uint64_t>(stats.recompute_rows_aggregated));
  if (ctx.metrics != nullptr) stats.EmitTo(*ctx.metrics);
  return stats;
}

}  // namespace sdelta::core
