#ifndef SDELTA_TESTS_ORACLE_H_
#define SDELTA_TESTS_ORACLE_H_

#include <functional>
#include <vector>

#include "core/maintenance.h"
#include "core/propagate.h"
#include "core/refresh.h"
#include "core/self_maintenance.h"
#include "core/summary_table.h"
#include "test_util.h"

namespace sdelta::testing {

/// The fundamental correctness oracle: maintaining summary tables
/// incrementally (propagate + refresh) must leave them identical to
/// recomputing them from scratch over the updated base data.
///
/// `make_catalog` must be deterministic (called twice: once for the
/// incremental run, once for the recomputation oracle). Changes are
/// built once against the first catalog and applied to both.
inline void ExpectMaintainedEqualsRecomputed(
    const std::function<rel::Catalog()>& make_catalog,
    const std::vector<core::ViewDef>& views,
    const std::function<core::ChangeSet(const rel::Catalog&)>& make_changes) {
  rel::Catalog catalog = make_catalog();
  std::vector<core::AugmentedView> augmented;
  std::vector<core::SummaryTable> summaries;
  for (const core::ViewDef& v : views) {
    augmented.push_back(core::AugmentForSelfMaintenance(catalog, v));
    summaries.emplace_back(augmented.back(), catalog);
    summaries.back().MaterializeFrom(catalog);
  }
  const core::ChangeSet changes = make_changes(catalog);

  // Propagate against the pre-change state, then enter the batch window.
  std::vector<rel::Table> deltas;
  for (const core::AugmentedView& av : augmented) {
    deltas.push_back(core::ComputeSummaryDelta(catalog, av, changes));
  }
  core::ApplyChangeSet(catalog, changes);
  for (size_t i = 0; i < summaries.size(); ++i) {
    core::Refresh(catalog, summaries[i], deltas[i]);
  }

  // Oracle: recompute from a fresh catalog with the same changes applied.
  rel::Catalog oracle = make_catalog();
  core::ApplyChangeSet(oracle, changes);
  for (size_t i = 0; i < summaries.size(); ++i) {
    const rel::Table expected =
        core::EvaluateView(oracle, augmented[i].physical);
    SCOPED_TRACE("view " + augmented[i].name());
    ExpectBagEq(expected, summaries[i].ToTable());
  }
}

}  // namespace sdelta::testing

#endif  // SDELTA_TESTS_ORACLE_H_
