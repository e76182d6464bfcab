#include "core/refresh.h"

#include <gtest/gtest.h>

#include "core/maintenance.h"
#include "core/propagate.h"
#include "oracle.h"
#include "tiny_catalog.h"

namespace sdelta::core {
namespace {

using rel::Expression;
using rel::GroupKey;
using rel::Table;
using rel::Value;
using sdelta::testing::PosRow;
using sdelta::testing::TinyCatalog;

AugmentedView SidView(const rel::Catalog& c) {
  ViewDef v;
  v.name = "SID_sales";
  v.fact_table = "pos";
  v.group_by = {"storeID", "itemID", "date"};
  v.aggregates = {rel::CountStar("TotalCount"),
                  rel::Sum(Expression::Column("qty"), "TotalQuantity")};
  return AugmentForSelfMaintenance(c, v);
}

/// Runs one full cycle for a view and returns the refresh stats.
RefreshStats Cycle(rel::Catalog& c, SummaryTable& st,
                   const ChangeSet& changes) {
  Table sd = ComputeSummaryDelta(c, st.def(), changes);
  ApplyChangeSet(c, changes);
  return Refresh(c, st, sd);
}

ChangeSet EmptyChanges(const rel::Catalog& c) {
  ChangeSet changes;
  changes.fact_table = "pos";
  changes.fact = DeltaSet(c.GetTable("pos").schema());
  return changes;
}

TEST(RefreshTest, Figure2InsertUpdateDelete) {
  // One cycle exercising all three outcomes of the SID_sales refresh of
  // Figure 2: a new group (insert), a grown group (update), and a group
  // whose COUNT(*) reaches zero (delete).
  rel::Catalog c = TinyCatalog();
  AugmentedView av = SidView(c);
  SummaryTable st(av, c);
  st.MaterializeFrom(c);
  const size_t before = st.NumRows();  // 5 groups

  ChangeSet changes = EmptyChanges(c);
  changes.fact.insertions.Insert(PosRow(9, 10, 1, 4));  // new group
  changes.fact.insertions.Insert(PosRow(1, 10, 1, 2));  // existing group
  changes.fact.deletions.Insert(PosRow(1, 20, 2, 2));   // only row of group

  RefreshStats stats = Cycle(c, st, changes);
  EXPECT_EQ(stats.inserted, 1u);
  EXPECT_EQ(stats.updated, 1u);
  EXPECT_EQ(stats.deleted, 1u);
  EXPECT_EQ(stats.recomputed_groups, 0u);
  EXPECT_EQ(st.NumRows(), before);  // +1 -1

  const rel::Row* grown =
      st.Find({Value::Int64(1), Value::Int64(10), Value::Int64(1)});
  ASSERT_NE(grown, nullptr);
  EXPECT_EQ((*grown)[3].as_int64(), 3);   // count 2 -> 3
  EXPECT_EQ((*grown)[4].as_int64(), 10);  // 8 + 2
  EXPECT_EQ(st.Find({Value::Int64(1), Value::Int64(20), Value::Int64(2)}),
            nullptr);
  const rel::Row* fresh =
      st.Find({Value::Int64(9), Value::Int64(10), Value::Int64(1)});
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ((*fresh)[3].as_int64(), 1);
  EXPECT_EQ((*fresh)[4].as_int64(), 4);
}

TEST(RefreshTest, EachDeltaTupleTouchesOneSummaryTuple) {
  rel::Catalog c = TinyCatalog();
  AugmentedView av = SidView(c);
  SummaryTable st(av, c);
  st.MaterializeFrom(c);
  ChangeSet changes = EmptyChanges(c);
  // Two changes to the SAME group must collapse to one delta row and one
  // update.
  changes.fact.insertions.Insert(PosRow(1, 10, 1, 1));
  changes.fact.insertions.Insert(PosRow(1, 10, 1, 1));
  RefreshStats stats = Cycle(c, st, changes);
  EXPECT_EQ(stats.updated, 1u);
  EXPECT_EQ(stats.inserted + stats.deleted, 0u);
}

TEST(RefreshTest, InconsistentDeleteOfMissingGroupThrows) {
  rel::Catalog c = TinyCatalog();
  AugmentedView av = SidView(c);
  SummaryTable st(av, c);
  st.MaterializeFrom(c);

  // Forge a summary-delta deleting a group that does not exist.
  Table sd(st.schema(), "sd_forged");
  sd.Insert({Value::Int64(42), Value::Int64(42), Value::Int64(42),
             Value::Int64(-1), Value::Int64(-5), Value::Int64(-1)});
  EXPECT_THROW(Refresh(c, st, sd), std::runtime_error);
}

TEST(RefreshTest, CountGoingNegativeThrows) {
  rel::Catalog c = TinyCatalog();
  AugmentedView av = SidView(c);
  SummaryTable st(av, c);
  st.MaterializeFrom(c);

  Table sd(st.schema(), "sd_forged");
  // Group (1,10,1) has count 2; delta of -3 is inconsistent.
  sd.Insert({Value::Int64(1), Value::Int64(10), Value::Int64(1),
             Value::Int64(-3), Value::Int64(-20), Value::Int64(-3)});
  EXPECT_THROW(Refresh(c, st, sd), std::runtime_error);
}

TEST(RefreshTest, ArityMismatchThrows) {
  rel::Catalog c = TinyCatalog();
  AugmentedView av = SidView(c);
  SummaryTable st(av, c);
  rel::Schema bad;
  bad.AddColumn("x", rel::ValueType::kInt64);
  EXPECT_THROW(Refresh(c, st, Table(bad)), std::invalid_argument);
}

TEST(RefreshTest, MixedDeltaMatchesRecompute) {
  auto make_changes = [](const rel::Catalog& cat) {
    ChangeSet changes = EmptyChanges(cat);
    changes.fact.insertions.Insert(PosRow(9, 10, 1, 4));
    changes.fact.insertions.Insert(PosRow(1, 10, 1, 2));
    changes.fact.deletions.Insert(PosRow(1, 20, 2, 2));
    changes.fact.deletions.Insert(PosRow(2, 10, 1, 7));
    return changes;
  };
  ViewDef v;
  v.name = "SID_sales";
  v.fact_table = "pos";
  v.group_by = {"storeID", "itemID", "date"};
  v.aggregates = {rel::CountStar("TotalCount"),
                  rel::Sum(Expression::Column("qty"), "TotalQuantity")};

  sdelta::testing::ExpectMaintainedEqualsRecomputed(&TinyCatalog, {v},
                                                    make_changes);
}

TEST(RefreshTest, SummaryDeltaOfPureInsertionsOnlyInsertsOrUpdates) {
  // Paper §6: insertion-generating changes cause only inserts into views
  // grouping by date.
  rel::Catalog c = TinyCatalog();
  AugmentedView av = SidView(c);
  SummaryTable st(av, c);
  st.MaterializeFrom(c);
  ChangeSet changes = EmptyChanges(c);
  changes.fact.insertions.Insert(PosRow(1, 10, 100, 1));  // new date
  changes.fact.insertions.Insert(PosRow(2, 20, 100, 2));  // new date
  RefreshStats stats = Cycle(c, st, changes);
  EXPECT_EQ(stats.inserted, 2u);
  EXPECT_EQ(stats.deleted, 0u);
  EXPECT_EQ(stats.updated, 0u);
  EXPECT_EQ(stats.recomputed_groups, 0u);
}

}  // namespace
}  // namespace sdelta::core
