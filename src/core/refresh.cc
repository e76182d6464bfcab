#include "core/refresh.h"

#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "core/propagate.h"
#include "core/view_def.h"
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

/// Recomputes every group in `keys` (assumed distinct — summary-delta
/// keys are grouped) from the (already updated) base data in one
/// streaming pass over the fact table, writing the fresh rows into the
/// summary table. Returns rows scanned.
size_t BatchRecompute(const rel::Catalog& catalog, SummaryTable& view,
                      const std::vector<GroupKey>& keys,
                      RefreshStats* stats) {
  if (keys.empty()) return 0;
  const ViewDef& def = view.def().physical;
  const Table& fact = catalog.GetTable(def.fact_table);

  // Per-join lookup: dim key value -> dim row (FK joins are 1:1). The
  // single-column key packs through a codec over the dim key column —
  // probes then encode the fact FK value instead of boxing it into a
  // one-element GroupKey per fact row. NULLs encode to the codec's null
  // sentinel, preserving the historical NULL-matches-NULL behaviour of
  // this lookup (unlike HashJoin, which skips NULL keys).
  struct DimLookup {
    const Table* dim;
    size_t fact_col;  // index in fact schema
    size_t dim_key_col;
    std::vector<size_t> fact_key_idx;  // {fact_col}, for EncodeRow
    std::vector<size_t> dim_key_idx;   // {dim_key_col}, for EncodeRow
    std::vector<size_t> carried;  // non-key dim columns, in schema order
    rel::PackedKeyCodec codec;
    rel::FlatHashMap<rel::PackedKey, size_t, rel::PackedKeyHash> packed;
    std::unordered_map<GroupKey, size_t, rel::GroupKeyHash> boxed;
  };
  std::vector<DimLookup> dims;
  for (const DimensionJoin& j : def.joins) {
    DimLookup dl;
    dl.dim = &catalog.GetTable(j.dim_table);
    dl.fact_col = fact.schema().Resolve(j.fact_column);
    dl.dim_key_col = dl.dim->schema().Resolve(j.dim_column);
    dl.fact_key_idx = {dl.fact_col};
    dl.dim_key_idx = {dl.dim_key_col};
    for (size_t c = 0; c < dl.dim->schema().NumColumns(); ++c) {
      if (c != dl.dim_key_col) dl.carried.push_back(c);
    }
    dl.codec = rel::PackedKeyCodec::ForColumns(
        dl.dim->schema(), dl.dim_key_idx, [&catalog](const rel::Column& c) {
          return &catalog.dictionaries().ForColumn(c.name);
        });
    if (dl.codec.packable()) {
      dl.packed.Reserve(dl.dim->NumRows());
    } else {
      dl.boxed.reserve(dl.dim->NumRows());
    }
    for (size_t r = 0; r < dl.dim->NumRows(); ++r) {
      rel::PackedKey pk;
      const bool packed =
          dl.codec.packable() &&
          dl.codec.EncodeColumns(*dl.dim, dl.dim_key_idx, r,
                                 rel::PackedKeyCodec::StringMode::kIntern,
                                 &pk) ==
              rel::PackedKeyCodec::ColumnarEncode::kPacked;
      if (packed) {
        dl.packed.FindOrInsert(pk, r);  // keep-first, like emplace did
      } else {
        dl.boxed.emplace(GroupKey{dl.dim->ValueAt(r, dl.dim_key_col)}, r);
      }
    }
    dims.push_back(std::move(dl));
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

  // Recompute set, keyed through the view's own codec (first-appearance
  // entries keep the original GroupKeys for the writeback below, in the
  // deterministic order of `keys`).
  const rel::PackedKeyCodec& vcodec = view.codec();
  rel::FlatHashMap<rel::PackedKey, size_t, rel::PackedKeyHash> gpacked;
  std::unordered_map<GroupKey, size_t, rel::GroupKeyHash> gboxed;
  std::vector<std::pair<GroupKey, std::vector<rel::Accumulator>>> entries;
  entries.reserve(keys.size());
  if (vcodec.packable()) {
    gpacked.Reserve(keys.size());
  } else {
    gboxed.reserve(keys.size());
  }
  for (const GroupKey& k : keys) {
    std::vector<rel::Accumulator> accs;
    for (const rel::AggregateSpec& a : def.aggregates) {
      accs.emplace_back(a.kind);
    }
    std::optional<rel::PackedKey> pk;
    if (vcodec.packable()) pk = vcodec.EncodeKey(k);
    if (pk.has_value()) {
      auto [slot, inserted] = gpacked.FindOrInsert(*pk, entries.size());
      if (inserted) entries.emplace_back(k, std::move(accs));
    } else {
      auto [it, inserted] = gboxed.emplace(k, entries.size());
      if (inserted) entries.emplace_back(k, std::move(accs));
    }
  }

  uint64_t packed_probes = 0;
  uint64_t fallback_probes = 0;
  size_t scanned = 0;
  const size_t fact_cols = fact.schema().NumColumns();
  Row joined_row;
  GroupKey key_scratch;
  for (size_t fr = 0; fr < fact.NumRows(); ++fr) {
    ++scanned;
    joined_row.clear();
    for (size_t c = 0; c < fact_cols; ++c) {
      joined_row.push_back(fact.ValueAt(fr, c));
    }
    bool matched = true;
    for (const DimLookup& dl : dims) {
      const size_t* pos = nullptr;
      rel::PackedKey pk;
      const bool packed =
          dl.codec.packable() &&
          dl.codec.EncodeColumns(fact, dl.fact_key_idx, fr,
                                 rel::PackedKeyCodec::StringMode::kIntern,
                                 &pk) ==
              rel::PackedKeyCodec::ColumnarEncode::kPacked;
      if (packed) {
        ++packed_probes;
        pos = dl.packed.Find(pk);
      } else {
        ++fallback_probes;
        key_scratch.clear();
        key_scratch.push_back(joined_row[dl.fact_col]);
        auto it = dl.boxed.find(key_scratch);
        if (it != dl.boxed.end()) pos = &it->second;
      }
      if (pos == nullptr) {
        matched = false;
        break;
      }
      for (size_t c : dl.carried) {
        joined_row.push_back(dl.dim->ValueAt(*pos, c));
      }
    }
    if (!matched) continue;
    if (where.has_value() && !where->EvalPredicate(joined_row)) continue;
    std::vector<rel::Accumulator>* accs = nullptr;
    std::optional<rel::PackedKey> pk;
    if (vcodec.packable()) pk = vcodec.EncodeRow(joined_row, group_idx);
    if (pk.has_value()) {
      ++packed_probes;
      const size_t* slot = gpacked.Find(*pk);
      if (slot != nullptr) accs = &entries[*slot].second;
    } else {
      ++fallback_probes;
      rel::ExtractKey(joined_row, group_idx, &key_scratch);
      auto it = gboxed.find(key_scratch);
      if (it != gboxed.end()) accs = &entries[it->second].second;
    }
    if (accs == nullptr) continue;
    for (size_t i = 0; i < def.aggregates.size(); ++i) {
      if (def.aggregates[i].kind == rel::AggregateKind::kCountStar) {
        (*accs)[i].Add(Value::Null());
      } else {
        (*accs)[i].Add(agg_args[i].Eval(joined_row));
      }
    }
  }
  if (stats != nullptr) {
    stats->key_packed_ops += packed_probes;
    stats->key_fallback_ops += fallback_probes;
  }

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
    if (stats != nullptr) ++stats->recomputed_groups;
  }
  return scanned;
}

}  // namespace

void RefreshStats::EmitTo(obs::MetricsRegistry& metrics) const {
  metrics.Add("refresh.inserts", inserted);
  metrics.Add("refresh.deletes", deleted);
  metrics.Add("refresh.updates", updated);
  metrics.Add("refresh.recomputed_groups", recomputed_groups);
  metrics.Add("refresh.recompute_scan_rows", recompute_scan_rows);
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

  stats.recompute_scan_rows += BatchRecompute(catalog, view, recompute,
                                              &stats);
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
  if (ctx.metrics != nullptr) stats.EmitTo(*ctx.metrics);
  return stats;
}

}  // namespace sdelta::core
