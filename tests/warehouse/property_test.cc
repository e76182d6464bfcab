#include <gtest/gtest.h>

#include <tuple>

#include "test_util.h"
#include "warehouse/retail_schema.h"
#include "warehouse/warehouse.h"
#include "warehouse/workload.h"

namespace sdelta::warehouse {
namespace {

using sdelta::testing::ExpectBagEq;

enum class ChangeKind { kUpdate, kInsertion, kDimension, kMixed };

const char* ChangeKindName(ChangeKind k) {
  switch (k) {
    case ChangeKind::kUpdate: return "update";
    case ChangeKind::kInsertion: return "insertion";
    case ChangeKind::kDimension: return "dimension";
    case ChangeKind::kMixed: return "mixed";
  }
  return "?";
}

/// The end-to-end property: for any seed, change class and lattice mode,
/// a sequence of incrementally maintained batches leaves every summary
/// table identical to recomputation.
using Param = std::tuple<uint64_t /*seed*/, ChangeKind, bool /*use_lattice*/>;

class MaintenanceProperty : public ::testing::TestWithParam<Param> {};

core::ChangeSet MakeChanges(const rel::Catalog& catalog, ChangeKind kind,
                            uint64_t seed) {
  switch (kind) {
    case ChangeKind::kUpdate:
      return MakeUpdateGeneratingChanges(catalog, 120, seed);
    case ChangeKind::kInsertion:
      return MakeInsertionGeneratingChanges(catalog, 120, seed);
    case ChangeKind::kDimension:
      return MakeItemRecategorization(catalog, 8, seed);
    case ChangeKind::kMixed: {
      core::ChangeSet changes = MakeUpdateGeneratingChanges(catalog, 80,
                                                            seed);
      core::ChangeSet dims = MakeItemRecategorization(catalog, 5, seed + 1);
      changes.dimensions = std::move(dims.dimensions);
      return changes;
    }
  }
  throw std::logic_error("unknown change kind");
}

TEST_P(MaintenanceProperty, IncrementalEqualsRecompute) {
  const auto [seed, kind, use_lattice] = GetParam();

  RetailConfig config;
  config.num_stores = 12;
  config.num_cities = 5;
  config.num_regions = 2;
  config.num_items = 60;
  config.num_categories = 6;
  config.num_dates = 15;
  config.num_pos_rows = 1200;
  config.seed = seed;

  Warehouse::Options options;
  options.use_lattice = use_lattice;

  Warehouse wh(MakeRetailCatalog(config), options);
  wh.DefineSummaryTables(RetailSummaryTables());

  // Three consecutive batch windows with varied change classes.
  for (uint64_t batch = 0; batch < 3; ++batch) {
    wh.RunBatch(MakeChanges(wh.catalog(), kind, seed * 100 + batch));
  }

  for (const core::AugmentedView& av : wh.vlattice().views) {
    SCOPED_TRACE(std::string(ChangeKindName(kind)) + " view " + av.name());
    ExpectBagEq(core::EvaluateView(wh.catalog(), av.physical),
                wh.summary(av.name()).ToTable());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MaintenanceProperty,
    ::testing::Combine(
        ::testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3},
                          uint64_t{4}),
        ::testing::Values(ChangeKind::kUpdate, ChangeKind::kInsertion,
                          ChangeKind::kDimension, ChangeKind::kMixed),
        ::testing::Bool()),
    // "_cursor" names the Figure 7 cursor refresh, the one refresh path;
    // instance names keep it so they stay stable across releases.
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string("seed") + std::to_string(std::get<0>(info.param)) +
             "_" + ChangeKindName(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_lattice" : "_direct") + "_cursor";
    });

/// A second property: propagate must never read the summary tables and
/// refresh must touch each summary tuple at most once — verified through
/// the accounting invariant |inserts| + |updates| + |deletes| +
/// |recomputes| <= |summary-delta rows| per view.
class RefreshAccounting : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RefreshAccounting, EachDeltaTupleCausesOneChange) {
  RetailConfig config;
  config.num_pos_rows = 1500;
  config.seed = GetParam();
  Warehouse wh(MakeRetailCatalog(config), Warehouse::Options{});
  wh.DefineSummaryTables(RetailSummaryTables());
  BatchReport report =
      wh.RunBatch(MakeUpdateGeneratingChanges(wh.catalog(), 150,
                                              GetParam() + 1000));
  for (const ViewBatchReport& v : report.views) {
    SCOPED_TRACE(v.view);
    EXPECT_LE(v.refresh.inserted + v.refresh.updated + v.refresh.deleted +
                  v.refresh.recomputed_groups,
              v.delta_rows);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefreshAccounting,
                         ::testing::Values(uint64_t{10}, uint64_t{11},
                                           uint64_t{12}, uint64_t{13},
                                           uint64_t{14}));

}  // namespace
}  // namespace sdelta::warehouse
