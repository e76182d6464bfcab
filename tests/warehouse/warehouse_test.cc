#include "warehouse/warehouse.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "warehouse/retail_schema.h"
#include "warehouse/workload.h"

namespace sdelta::warehouse {
namespace {

using sdelta::testing::ExpectBagEq;

RetailConfig SmallConfig(uint64_t seed = 55) {
  RetailConfig config;
  config.num_stores = 15;
  config.num_cities = 6;
  config.num_regions = 3;
  config.num_items = 80;
  config.num_categories = 8;
  config.num_dates = 30;
  config.num_pos_rows = 2500;
  config.seed = seed;
  return config;
}

Warehouse MakeWarehouse(Warehouse::Options options = {},
                        uint64_t seed = 55) {
  Warehouse wh(MakeRetailCatalog(SmallConfig(seed)), options);
  wh.DefineSummaryTables(RetailSummaryTables());
  return wh;
}

TEST(WarehouseTest, DefineBuildsLatticeAndPlan) {
  Warehouse wh = MakeWarehouse();
  EXPECT_EQ(wh.NumSummaryTables(), 4u);
  EXPECT_EQ(wh.vlattice().edges.size(), 5u);  // Figure 8 + transitive
  EXPECT_EQ(wh.plan().steps.size(), 4u);
  EXPECT_GT(wh.summary("SID_sales").NumRows(), 0u);
  EXPECT_THROW(wh.summary("nope"), std::invalid_argument);
}

// Maintenance is serial unless a caller asks for threads: the default
// options resolve to one execution context, no pool, and a batch emits
// no exec.* series.
TEST(WarehouseTest, DefaultOptionsRunSerially) {
  obs::MetricsRegistry metrics;
  Warehouse::Options options;
  options.metrics = &metrics;
  Warehouse wh = MakeWarehouse(options);
  EXPECT_EQ(wh.num_threads(), 1u);
  EXPECT_EQ(wh.pool(), nullptr);
  wh.RunBatch(MakeUpdateGeneratingChanges(wh.catalog(), 300, 61));
  const obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_GT(snap.counters.count("propagate.delta_rows"), 0u);
  std::vector<std::string> names;
  for (const auto& [name, value] : snap.counters) names.push_back(name);
  for (const auto& [name, value] : snap.gauges) names.push_back(name);
  for (const auto& [name, value] : snap.histograms) names.push_back(name);
  for (const std::string& name : names) {
    EXPECT_NE(name.rfind("exec.", 0), 0u) << name;
  }
}

TEST(WarehouseTest, DefineTwiceThrows) {
  Warehouse wh = MakeWarehouse();
  EXPECT_THROW(wh.DefineSummaryTables(RetailSummaryTables()),
               std::logic_error);
}

TEST(WarehouseTest, BatchKeepsSummariesConsistent) {
  Warehouse wh = MakeWarehouse();
  const core::ChangeSet changes =
      MakeUpdateGeneratingChanges(wh.catalog(), 300, 61);
  BatchReport report = wh.RunBatch(changes);
  EXPECT_GT(report.propagate.delta_groups, 0u);
  EXPECT_GE(report.propagate_seconds, 0.0);
  ASSERT_EQ(report.views.size(), 4u);

  for (size_t i = 0; i < wh.vlattice().views.size(); ++i) {
    const core::AugmentedView& av = wh.vlattice().views[i];
    SCOPED_TRACE(av.name());
    ExpectBagEq(core::EvaluateView(wh.catalog(), av.physical),
                wh.summary(av.name()).ToTable());
  }
}

TEST(WarehouseTest, MultipleBatchesCompose) {
  Warehouse wh = MakeWarehouse();
  for (uint64_t b = 0; b < 3; ++b) {
    wh.RunBatch(MakeUpdateGeneratingChanges(wh.catalog(), 150, 70 + b));
    wh.RunBatch(MakeInsertionGeneratingChanges(wh.catalog(), 100, 80 + b));
  }
  for (const core::AugmentedView& av : wh.vlattice().views) {
    SCOPED_TRACE(av.name());
    ExpectBagEq(core::EvaluateView(wh.catalog(), av.physical),
                wh.summary(av.name()).ToTable());
  }
}

TEST(WarehouseTest, NoLatticeModeSameResults) {
  Warehouse::Options opts;
  opts.use_lattice = false;
  Warehouse wh = MakeWarehouse(opts);
  for (const lattice::PlanStep& s : wh.plan().steps) {
    EXPECT_FALSE(s.edge.has_value());
  }
  wh.RunBatch(MakeUpdateGeneratingChanges(wh.catalog(), 200, 62));
  for (const core::AugmentedView& av : wh.vlattice().views) {
    SCOPED_TRACE(av.name());
    ExpectBagEq(core::EvaluateView(wh.catalog(), av.physical),
                wh.summary(av.name()).ToTable());
  }
}

TEST(WarehouseTest, NotLatticeFriendlyStillCorrect) {
  Warehouse::Options opts;
  opts.lattice_friendly = false;
  Warehouse wh = MakeWarehouse(opts);
  // Without the region extension sR cannot derive from sCD, but the
  // lattice still has SID -> {sCD, SiC, sR}.
  EXPECT_EQ(wh.vlattice().edges.size(), 4u);
  wh.RunBatch(MakeUpdateGeneratingChanges(wh.catalog(), 200, 63));
  for (const core::AugmentedView& av : wh.vlattice().views) {
    SCOPED_TRACE(av.name());
    ExpectBagEq(core::EvaluateView(wh.catalog(), av.physical),
                wh.summary(av.name()).ToTable());
  }
}

TEST(WarehouseTest, PropagateOnlyDoesNotTouchState) {
  Warehouse wh = MakeWarehouse();
  const size_t pos_rows = wh.catalog().GetTable("pos").NumRows();
  const size_t sid_rows = wh.summary("SID_sales").NumRows();
  core::PropagateStats stats;
  const double secs = wh.PropagateOnly(
      MakeUpdateGeneratingChanges(wh.catalog(), 200, 64), &stats);
  EXPECT_GE(secs, 0.0);
  EXPECT_GT(stats.delta_groups, 0u);
  EXPECT_EQ(wh.catalog().GetTable("pos").NumRows(), pos_rows);
  EXPECT_EQ(wh.summary("SID_sales").NumRows(), sid_rows);
}

TEST(WarehouseTest, RematerializeAllMatchesMaintained) {
  // Two identical warehouses; one maintains incrementally, the other
  // rematerializes. They must agree.
  Warehouse incremental = MakeWarehouse({}, 91);
  Warehouse remat = MakeWarehouse({}, 91);
  const core::ChangeSet changes =
      MakeUpdateGeneratingChanges(incremental.catalog(), 250, 65);
  incremental.RunBatch(changes);
  const double secs = remat.RematerializeAll(changes);
  EXPECT_GE(secs, 0.0);
  for (const core::AugmentedView& av : incremental.vlattice().views) {
    SCOPED_TRACE(av.name());
    ExpectBagEq(remat.summary(av.name()).ToTable(),
                incremental.summary(av.name()).ToTable());
  }
}

TEST(WarehouseTest, LogicalTableHidesAugmentation) {
  Warehouse wh = MakeWarehouse();
  const rel::Table logical = wh.summary("SiC_sales").ToLogicalTable();
  // Logical columns: storeID, category, TotalCount, EarliestSale,
  // TotalQuantity — no companion counts.
  EXPECT_EQ(logical.schema().NumColumns(), 5u);
}

TEST(WarehouseTest, BatchReportAccounting) {
  Warehouse wh = MakeWarehouse();
  BatchReport report =
      wh.RunBatch(MakeInsertionGeneratingChanges(wh.catalog(), 200, 67));
  const core::RefreshStats total = report.TotalRefresh();
  EXPECT_GT(total.inserted + total.updated, 0u);
  // Insertion-generating changes delete nothing.
  EXPECT_EQ(total.deleted, 0u);
  EXPECT_DOUBLE_EQ(report.maintenance_seconds(),
                   report.propagate_seconds + report.refresh_seconds);
}

}  // namespace
}  // namespace sdelta::warehouse
