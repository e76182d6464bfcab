#include "core/propagate.h"

#include <stdexcept>

#include "core/prepare_changes.h"

namespace sdelta::core {

using rel::Expression;
using rel::Table;

void PropagateStats::EmitTo(obs::MetricsRegistry& metrics) const {
  metrics.Add("propagate.rows_scanned", prepared_tuples);
  metrics.Add("propagate.delta_rows", delta_groups);
  exec::ForEachOperator(ops, [&](const char* name,
                                 const exec::OperatorCounters& c) {
    if (c.calls == 0) return;
    const std::string prefix = std::string("op.") + name;
    metrics.Add(prefix + ".calls", c.calls);
    metrics.Add(prefix + ".rows_in", c.rows_in);
    metrics.Add(prefix + ".rows_out", c.rows_out);
    metrics.Add(prefix + ".morsels", c.morsels);
    metrics.Add(prefix + ".batches", c.batches);
    metrics.Observe(prefix + ".seconds", c.wall_seconds);
  });
  if (ops.hash_join.calls > 0) {
    metrics.Add("op.hash_join.build_rows", ops.join_build_rows);
    metrics.Add("op.hash_join.probe_rows", ops.join_probe_rows);
  }
  // Key-encoding traffic. The row counters are thread-count-invariant
  // (tallied once per input row); probe lengths depend on the morsel
  // split, so they only ever feed a histogram.
  if (ops.key_packed_rows + ops.key_fallback_rows > 0) {
    metrics.Add("key.packed_rows", ops.key_packed_rows);
    metrics.Add("key.fallback_rows", ops.key_fallback_rows);
  }
  if (ops.key_probe_ops > 0) {
    metrics.Observe("hash.probe_len",
                    static_cast<double>(ops.key_probe_steps) /
                        static_cast<double>(ops.key_probe_ops));
  }
}

std::vector<rel::AggregateSpec> DeltaAggregates(const AugmentedView& view) {
  std::vector<rel::AggregateSpec> specs;
  specs.reserve(view.physical.aggregates.size());
  for (const rel::AggregateSpec& a : view.physical.aggregates) {
    switch (a.kind) {
      case rel::AggregateKind::kCountStar:
      case rel::AggregateKind::kCount:
      case rel::AggregateKind::kSum:
        specs.push_back(rel::Sum(Expression::Column(a.output_name),
                                 a.output_name));
        break;
      case rel::AggregateKind::kMin:
        specs.push_back(rel::Min(Expression::Column(a.output_name),
                                 a.output_name));
        break;
      case rel::AggregateKind::kMax:
        specs.push_back(rel::Max(Expression::Column(a.output_name),
                                 a.output_name));
        break;
      case rel::AggregateKind::kAvg:
        throw std::logic_error("AVG in physical view " + view.name());
    }
  }
  return specs;
}

namespace {

/// The taint aggregate over a prepare-changes relation: 1 if any row of
/// the group carries a negative COUNT(*) source (i.e. stems from a
/// deletion), else 0.
rel::AggregateSpec TaintFromSources(const AugmentedView& view) {
  return rel::Max(
      Expression::Lt(Expression::Column(view.count_star_column),
                     Expression::Literal(rel::Value::Int64(0))),
      kTaintedColumn);
}

}  // namespace

rel::Table ComputeSummaryDelta(const rel::Catalog& catalog,
                               const AugmentedView& view,
                               const ChangeSet& changes,
                               const exec::Context& ctx,
                               PropagateStats* stats,
                               size_t delta_size_hint) {
  obs::TraceSpan span(ctx.tracer, "sd.compute");
  span.Attr("view", view.name());
  PropagateStats local;
  Table pc = PrepareChanges(catalog, view, changes, ctx.pool, &local.ops);
  local.prepared_tuples = pc.NumRows();
  std::vector<rel::GroupByColumn> groups;
  for (const std::string& g : view.physical.group_by) {
    groups.push_back(rel::GroupByColumn{rel::BareName(g), ""});
  }
  std::vector<rel::AggregateSpec> specs = DeltaAggregates(view);
  specs.push_back(TaintFromSources(view));
  Table out = rel::GroupBy(pc, groups, specs, ctx.pool, &local.ops,
                           delta_size_hint);
  out.SetName("sd_" + view.name());
  local.delta_groups = out.NumRows();
  span.Attr("prepared_tuples", static_cast<uint64_t>(local.prepared_tuples));
  span.Attr("delta_rows", static_cast<uint64_t>(local.delta_groups));
  if (ctx.metrics != nullptr) local.EmitTo(*ctx.metrics);
  if (stats != nullptr) *stats = local;
  return out;
}

std::string DerivationRecipe::ToString() const {
  std::string s = child_name + " <= " + parent_name;
  if (!joins.empty()) {
    s += " [join:";
    for (const DimensionJoin& j : joins) s += " " + j.dim_table;
    s += "]";
  }
  return s;
}

rel::Table ApplyDerivation(const rel::Catalog& catalog,
                           const DerivationRecipe& recipe,
                           const rel::Table& parent_rows,
                           exec::ThreadPool* pool, exec::OperatorStats* stats,
                           size_t size_hint) {
  // The operators only read their inputs, so the join chain can start
  // from `parent_rows` in place — no upfront copy.
  const Table* current = &parent_rows;
  Table owned;
  for (const DimensionJoin& j : recipe.joins) {
    owned = rel::HashJoin(*current, catalog.GetTable(j.dim_table),
                          {{j.fact_column, j.dim_column}}, j.dim_table,
                          /*drop_right_keys=*/true, pool, stats);
    current = &owned;
  }
  // Propagate the hidden taint marker down D-lattice edges (it is absent
  // when the recipe runs over materialized view rows — the V-side).
  std::vector<rel::AggregateSpec> specs = recipe.aggregates;
  if (parent_rows.schema().IndexOf(kTaintedColumn).has_value()) {
    specs.push_back(
        rel::Max(Expression::Column(kTaintedColumn), kTaintedColumn));
  }
  Table out =
      rel::GroupBy(*current, recipe.group_by, specs, pool, stats, size_hint);
  out.SetName("sd_" + recipe.child_name);
  return out;
}

}  // namespace sdelta::core
