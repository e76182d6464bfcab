#include "lattice/answer.h"

#include <limits>
#include <stdexcept>

#include "lattice/derives.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sdelta::lattice {

AnswerResult AnswerQuery(const rel::Catalog& catalog, const VLattice& lattice,
                         const std::vector<const core::SummaryTable*>&
                             summaries,
                         const core::ViewDef& query,
                         const exec::Context& ctx) {
  if (summaries.size() != lattice.views.size()) {
    throw std::invalid_argument(
        "AnswerQuery: summaries must parallel lattice views");
  }
  obs::TraceSpan span(ctx.tracer, "answer.query");
  span.Attr("query", query.name);
  const core::AugmentedView augmented =
      core::AugmentForSelfMaintenance(catalog, query);

  // Pick the cheapest summary table the query derives from.
  const core::SummaryTable* best = nullptr;
  core::DerivationRecipe best_recipe;
  size_t best_cost = std::numeric_limits<size_t>::max();
  for (size_t i = 0; i < lattice.views.size(); ++i) {
    std::optional<core::DerivationRecipe> recipe =
        ComputeDerivation(catalog, augmented, lattice.views[i]);
    if (!recipe.has_value()) continue;
    // Cost: rows scanned, inflated per dimension join on the rewrite.
    const size_t cost =
        summaries[i]->NumRows() * (1 + recipe->joins.size());
    if (cost < best_cost) {
      best_cost = cost;
      best = summaries[i];
      best_recipe = std::move(*recipe);
    }
  }

  AnswerResult result;
  if (best == nullptr) {
    result.from_base = true;
    result.rows_read = catalog.GetTable(query.fact_table).NumRows();
    rel::Table physical = core::EvaluateView(catalog, augmented.physical);
    result.rows = core::LogicalRows(augmented, physical);
    span.Attr("source", "base");
    span.Attr("rows_read", static_cast<uint64_t>(result.rows_read));
    if (ctx.metrics != nullptr) {
      ctx.metrics->Add("answer.base_fallbacks");
      ctx.metrics->Add("answer.rows_read", result.rows_read);
    }
    return result;
  }
  result.source_view = best->name();
  result.rows_read = best->NumRows();
  span.Attr("source", result.source_view);
  span.Attr("rows_read", static_cast<uint64_t>(result.rows_read));
  if (ctx.metrics != nullptr) {
    ctx.metrics->Add("answer.view_hits");
    ctx.metrics->Add("answer.rows_read", result.rows_read);
  }
  rel::Table physical =
      core::ApplyDerivation(catalog, best_recipe, best->ToTable());
  rel::Table logical = core::LogicalRows(augmented, physical);
  // Stamp the query's own name on the output.
  logical.SetName(query.name);
  result.rows = std::move(logical);
  return result;
}

}  // namespace sdelta::lattice
