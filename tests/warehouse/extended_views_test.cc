#include <gtest/gtest.h>

#include "oracle.h"
#include "test_util.h"
#include "warehouse/retail_schema.h"
#include "warehouse/warehouse.h"
#include "warehouse/workload.h"

namespace sdelta::warehouse {
namespace {

using core::ViewDef;
using rel::Expression;
using sdelta::testing::ExpectMaintainedEqualsRecomputed;

rel::Catalog SmallRetail() {
  RetailConfig config;
  config.num_stores = 10;
  config.num_items = 50;
  config.num_dates = 20;
  config.num_pos_rows = 1500;
  config.seed = 33;
  return MakeRetailCatalog(config);
}

core::ChangeSet Changes(const rel::Catalog& c) {
  return MakeUpdateGeneratingChanges(c, 200, 44);
}

TEST(ExtendedViewsTest, ViewWithPredicateMaintains) {
  // Only large sales: WHERE qty >= 5.
  ViewDef v;
  v.name = "big_sales";
  v.fact_table = "pos";
  v.group_by = {"storeID"};
  v.where = Expression::Ge(Expression::Column("qty"),
                           Expression::Literal(rel::Value::Int64(5)));
  v.aggregates = {rel::CountStar("n"),
                  rel::Sum(Expression::Column("qty"), "total")};
  ExpectMaintainedEqualsRecomputed(&SmallRetail, {v}, &Changes);
}

TEST(ExtendedViewsTest, PredicateOverDimensionAttribute) {
  // WHERE category <> 'cat0' — the predicate references a joined
  // dimension column, so it can only be evaluated after the join;
  // propagation must still be exact.
  ViewDef v;
  v.name = "non_cat0";
  v.fact_table = "pos";
  v.joins = {core::DimensionJoin{"items", "itemID", "itemID"}};
  v.group_by = {"category"};
  v.where = Expression::Ne(Expression::Column("category"),
                           Expression::Literal(rel::Value::String("cat0")));
  v.aggregates = {rel::CountStar("n")};
  ExpectMaintainedEqualsRecomputed(&SmallRetail, {v}, &Changes);
}

TEST(ExtendedViewsTest, ExpressionAggregates) {
  // SUM(qty*qty) and MAX(qty + date) exercise non-column arguments
  // through prepare-changes (Table 1's expr / -expr rows).
  ViewDef v;
  v.name = "exprs";
  v.fact_table = "pos";
  v.group_by = {"storeID"};
  v.aggregates = {
      rel::Sum(Expression::Multiply(Expression::Column("qty"),
                                    Expression::Column("qty")),
               "qty_sq"),
      rel::Max(Expression::Add(Expression::Column("qty"),
                               Expression::Column("date")),
               "odd_max")};
  ExpectMaintainedEqualsRecomputed(&SmallRetail, {v}, &Changes);
}

TEST(ExtendedViewsTest, AvgThroughFullMaintenance) {
  ViewDef v;
  v.name = "avg_view";
  v.fact_table = "pos";
  v.joins = {core::DimensionJoin{"stores", "storeID", "storeID"}};
  v.group_by = {"region"};
  v.aggregates = {rel::Avg(Expression::Column("qty"), "avg_qty")};
  // The physical table (SUM+COUNT) matches recomputation exactly...
  ExpectMaintainedEqualsRecomputed(&SmallRetail, {v}, &Changes);

  // ...and the logical read divides correctly after a batch.
  rel::Catalog c = SmallRetail();
  core::AugmentedView av = core::AugmentForSelfMaintenance(c, v);
  core::SummaryTable st(av, c);
  st.MaterializeFrom(c);
  core::ChangeSet changes = Changes(c);
  rel::Table sd = core::ComputeSummaryDelta(c, av, changes);
  core::ApplyChangeSet(c, changes);
  core::Refresh(c, st, sd);
  rel::Table logical = st.ToLogicalTable();
  rel::Table expected = core::LogicalRows(av, core::EvaluateView(c, av.physical));
  sdelta::testing::ExpectBagApproxEq(expected, logical);
}

TEST(ExtendedViewsTest, DoubleValuedSumMaintains) {
  // SUM(price) over doubles: incremental addition accumulates float
  // error, so compare with tolerance.
  ViewDef v;
  v.name = "revenue";
  v.fact_table = "pos";
  v.group_by = {"storeID"};
  v.aggregates = {rel::Sum(Expression::Column("price"), "revenue"),
                  rel::CountStar("n")};

  rel::Catalog c = SmallRetail();
  core::AugmentedView av = core::AugmentForSelfMaintenance(c, v);
  core::SummaryTable st(av, c);
  st.MaterializeFrom(c);
  for (uint64_t b = 0; b < 3; ++b) {
    core::ChangeSet changes = MakeUpdateGeneratingChanges(c, 150, 50 + b);
    rel::Table sd = core::ComputeSummaryDelta(c, av, changes);
    core::ApplyChangeSet(c, changes);
    core::Refresh(c, st, sd);
  }
  sdelta::testing::ExpectBagApproxEq(core::EvaluateView(c, av.physical),
                                     st.ToTable(), 1e-6);
}

TEST(ExtendedViewsTest, ScalarViewNoGroupBy) {
  // A grand-total view: GROUP BY nothing. Its summary table has exactly
  // one row whose group key is empty.
  ViewDef v;
  v.name = "grand_total";
  v.fact_table = "pos";
  v.group_by = {};
  v.aggregates = {rel::CountStar("n"),
                  rel::Sum(Expression::Column("qty"), "total")};
  ExpectMaintainedEqualsRecomputed(&SmallRetail, {v}, &Changes);
}

TEST(ExtendedViewsTest, WideLatticeOfEightViewsMaintains) {
  std::vector<ViewDef> views = RetailSummaryTables();
  auto add = [&views](const std::string& name,
                      std::vector<core::DimensionJoin> joins,
                      std::vector<std::string> group_by) {
    ViewDef v;
    v.name = name;
    v.fact_table = "pos";
    v.joins = std::move(joins);
    v.group_by = std::move(group_by);
    v.aggregates = {rel::CountStar("TotalCount"),
                    rel::Sum(Expression::Column("qty"), "TotalQuantity")};
    views.push_back(std::move(v));
  };
  add("SI_sales", {}, {"storeID", "itemID"});
  add("D_sales", {}, {"date"});
  add("iC_sales", {{"items", "itemID", "itemID"}}, {"category"});
  add("cC_sales",
      {{"stores", "storeID", "storeID"}, {"items", "itemID", "itemID"}},
      {"city", "category"});

  Warehouse wh(SmallRetail());
  wh.DefineSummaryTables(views);
  EXPECT_EQ(wh.NumSummaryTables(), 8u);
  wh.RunBatch(MakeUpdateGeneratingChanges(wh.catalog(), 200, 61));
  wh.RunBatch(MakeInsertionGeneratingChanges(wh.catalog(), 150, 62));
  for (const core::AugmentedView& av : wh.vlattice().views) {
    SCOPED_TRACE(av.name());
    sdelta::testing::ExpectBagEq(
        core::EvaluateView(wh.catalog(), av.physical),
        wh.summary(av.name()).ToTable());
  }
}

TEST(ExtendedViewsTest, TwoViewsSamePredicateShareLattice) {
  ViewDef parent;
  parent.name = "big_by_store_item";
  parent.fact_table = "pos";
  parent.group_by = {"storeID", "itemID"};
  parent.where = Expression::Ge(Expression::Column("qty"),
                                Expression::Literal(rel::Value::Int64(5)));
  parent.aggregates = {rel::CountStar("n"),
                       rel::Sum(Expression::Column("qty"), "total")};
  ViewDef child = parent;
  child.name = "big_by_store";
  child.group_by = {"storeID"};

  Warehouse wh(SmallRetail());
  wh.DefineSummaryTables({parent, child});
  ASSERT_EQ(wh.vlattice().edges.size(), 1u);  // child <= parent
  wh.RunBatch(MakeUpdateGeneratingChanges(wh.catalog(), 200, 63));
  for (const core::AugmentedView& av : wh.vlattice().views) {
    SCOPED_TRACE(av.name());
    sdelta::testing::ExpectBagEq(
        core::EvaluateView(wh.catalog(), av.physical),
        wh.summary(av.name()).ToTable());
  }
}

}  // namespace
}  // namespace sdelta::warehouse
