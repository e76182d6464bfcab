#include "core/maintenance.h"

#include <stdexcept>

namespace sdelta::core {

void ApplyDeltaToTable(rel::Table& table, const DeltaSet& delta) {
  table.AppendColumnsFrom(delta.insertions);
  for (size_t i = 0; i < delta.deletions.NumRows(); ++i) {
    if (!table.EraseOneEqual(delta.deletions.RowAt(i))) {
      throw std::runtime_error("deletion does not match any row of table '" +
                               table.name() + "'");
    }
  }
}

void ApplyChangeSet(rel::Catalog& catalog, const ChangeSet& changes) {
  if (!changes.fact.empty()) {
    ApplyDeltaToTable(catalog.GetTable(changes.fact_table), changes.fact);
  }
  for (const auto& [dim, delta] : changes.dimensions) {
    if (!delta.empty()) {
      ApplyDeltaToTable(catalog.GetTable(dim), delta);
    }
  }
}

MaintenanceReport MaintainView(rel::Catalog& catalog, SummaryTable& view,
                               const ChangeSet& changes,
                               const RefreshOptions& ropts,
                               const exec::Context& ctx) {
  MaintenanceReport report;
  report.view = view.name();
  obs::TraceSpan span(ctx.tracer, "maintain.view");
  span.Attr("view", view.name());

  // Propagate runs against the pre-change base state, outside the batch
  // window (summary tables stay readable).
  Stopwatch sw;
  rel::Table sd = ComputeSummaryDelta(catalog, view.def(), changes, ctx,
                                      &report.propagate);
  report.propagate_seconds = sw.ElapsedSeconds();

  // The batch window: apply the changes to the base tables, then refresh
  // the summary table from the summary-delta.
  {
    obs::TraceSpan apply(ctx.tracer, "maintain.apply_base");
    ApplyChangeSet(catalog, changes);
  }

  sw.Reset();
  report.refresh = Refresh(catalog, view, sd, ropts, ctx);
  report.refresh_seconds = sw.ElapsedSeconds();
  if (ctx.metrics != nullptr) {
    ctx.metrics->Observe("maintain.propagate_seconds",
                           report.propagate_seconds);
    ctx.metrics->Observe("maintain.refresh_seconds",
                           report.refresh_seconds);
  }
  return report;
}

}  // namespace sdelta::core
