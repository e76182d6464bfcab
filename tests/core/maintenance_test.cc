#include "core/maintenance.h"

#include <gtest/gtest.h>

#include "oracle.h"
#include "tiny_catalog.h"
#include "warehouse/retail_schema.h"
#include "warehouse/workload.h"

namespace sdelta::core {
namespace {

using sdelta::testing::ExpectMaintainedEqualsRecomputed;
using sdelta::testing::PosRow;
using sdelta::testing::TinyCatalog;

rel::Catalog SmallRetail() {
  warehouse::RetailConfig config;
  config.num_stores = 10;
  config.num_cities = 4;
  config.num_regions = 2;
  config.num_items = 50;
  config.num_categories = 5;
  config.num_dates = 30;
  config.num_pos_rows = 2000;
  config.seed = 7;
  return warehouse::MakeRetailCatalog(config);
}

TEST(MaintenanceTest, MaintainViewReportsPhases) {
  rel::Catalog c = TinyCatalog();
  ViewDef v;
  v.name = "SID_sales";
  v.fact_table = "pos";
  v.group_by = {"storeID", "itemID", "date"};
  v.aggregates = {rel::CountStar("n"),
                  rel::Sum(rel::Expression::Column("qty"), "total")};
  AugmentedView av = AugmentForSelfMaintenance(c, v);
  SummaryTable st(av, c);
  st.MaterializeFrom(c);

  ChangeSet changes;
  changes.fact_table = "pos";
  changes.fact = DeltaSet(c.GetTable("pos").schema());
  changes.fact.insertions.Insert(PosRow(1, 10, 1, 2));
  changes.fact.deletions.Insert(PosRow(2, 20, 3, 4));

  MaintenanceReport report = MaintainView(c, st, changes);
  EXPECT_EQ(report.view, "SID_sales");
  EXPECT_GE(report.propagate_seconds, 0.0);
  EXPECT_GE(report.refresh_seconds, 0.0);
  EXPECT_EQ(report.propagate.prepared_tuples, 2u);
  EXPECT_EQ(report.propagate.delta_groups, 2u);
  EXPECT_EQ(report.refresh.updated, 1u);
  EXPECT_EQ(report.refresh.deleted, 1u);
  // Base table was updated inside the call.
  EXPECT_EQ(c.GetTable("pos").NumRows(), 6u);
}

TEST(MaintenanceTest, ApplyDeltaRejectsUnmatchedDeletion) {
  rel::Catalog c = TinyCatalog();
  DeltaSet d(c.GetTable("pos").schema());
  d.deletions.Insert(PosRow(99, 99, 99, 99));
  EXPECT_THROW(ApplyDeltaToTable(c.GetTable("pos"), d), std::runtime_error);
}

TEST(MaintenanceTest, AllFourRetailViewsUpdateGenerating) {
  ExpectMaintainedEqualsRecomputed(
      &SmallRetail, warehouse::RetailSummaryTables(),
      [](const rel::Catalog& cat) {
        return warehouse::MakeUpdateGeneratingChanges(cat, 200, 11);
      });
}

TEST(MaintenanceTest, AllFourRetailViewsInsertionGenerating) {
  ExpectMaintainedEqualsRecomputed(
      &SmallRetail, warehouse::RetailSummaryTables(),
      [](const rel::Catalog& cat) {
        return warehouse::MakeInsertionGeneratingChanges(cat, 200, 12);
      });
}

TEST(MaintenanceTest, ConsecutiveBatches) {
  // Three consecutive batch windows; state must track the oracle
  // throughout (deltas composed across batches).
  rel::Catalog c = SmallRetail();
  std::vector<AugmentedView> views;
  std::vector<SummaryTable> summaries;
  for (const ViewDef& v : warehouse::RetailSummaryTables()) {
    views.push_back(AugmentForSelfMaintenance(c, v));
    summaries.emplace_back(views.back(), c);
    summaries.back().MaterializeFrom(c);
  }
  for (uint64_t batch = 0; batch < 3; ++batch) {
    ChangeSet changes =
        warehouse::MakeUpdateGeneratingChanges(c, 100, 20 + batch);
    std::vector<rel::Table> deltas;
    for (const AugmentedView& av : views) {
      deltas.push_back(ComputeSummaryDelta(c, av, changes));
    }
    ApplyChangeSet(c, changes);
    for (size_t i = 0; i < summaries.size(); ++i) {
      Refresh(c, summaries[i], deltas[i]);
    }
  }
  for (size_t i = 0; i < summaries.size(); ++i) {
    SCOPED_TRACE(views[i].name());
    sdelta::testing::ExpectBagEq(EvaluateView(c, views[i].physical),
                                 summaries[i].ToTable());
  }
}

}  // namespace
}  // namespace sdelta::core
