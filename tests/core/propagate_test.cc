#include "core/propagate.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "tiny_catalog.h"

namespace sdelta::core {
namespace {

using rel::Expression;
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

AugmentedView ScdView(const rel::Catalog& c) {
  ViewDef v;
  v.name = "sCD_sales";
  v.fact_table = "pos";
  v.joins = {DimensionJoin{"stores", "storeID", "storeID"}};
  v.group_by = {"city", "date"};
  v.aggregates = {rel::CountStar("TotalCount"),
                  rel::Sum(Expression::Column("qty"), "TotalQuantity")};
  return AugmentForSelfMaintenance(c, v);
}

ChangeSet SmallChanges(const rel::Catalog& c) {
  ChangeSet changes;
  changes.fact_table = "pos";
  changes.fact = DeltaSet(c.GetTable("pos").schema());
  changes.fact.insertions.Insert(PosRow(1, 10, 1, 6));   // existing group
  changes.fact.insertions.Insert(PosRow(2, 10, 9, 2));   // new group
  changes.fact.deletions.Insert(PosRow(1, 10, 1, 5));    // shrink group
  changes.fact.deletions.Insert(PosRow(2, 20, 3, 4));    // empty a group
  return changes;
}

TEST(PropagateTest, NetChangesPerGroupNoJoin) {
  rel::Catalog c = TinyCatalog();
  AugmentedView v = SidView(c);
  PropagateStats stats;
  Table sd = ComputeSummaryDelta(c, v, SmallChanges(c), {}, &stats);

  EXPECT_EQ(stats.prepared_tuples, 4u);
  EXPECT_EQ(stats.delta_groups, 3u);
  ASSERT_EQ(sd.NumRows(), 3u);

  const size_t cnt = sd.schema().Resolve("TotalCount");
  const size_t qty = sd.schema().Resolve("TotalQuantity");
  for (const rel::Row& r : sd.MaterializeRows()) {
    const int64_t store = r[0].as_int64();
    const int64_t item = r[1].as_int64();
    const int64_t date = r[2].as_int64();
    if (store == 1 && item == 10 && date == 1) {
      EXPECT_EQ(r[cnt].as_int64(), 0);   // +1 -1
      EXPECT_EQ(r[qty].as_int64(), 1);   // +6 -5
    } else if (store == 2 && item == 10 && date == 9) {
      EXPECT_EQ(r[cnt].as_int64(), 1);
      EXPECT_EQ(r[qty].as_int64(), 2);
    } else if (store == 2 && item == 20 && date == 3) {
      EXPECT_EQ(r[cnt].as_int64(), -1);
      EXPECT_EQ(r[qty].as_int64(), -4);
    } else {
      FAIL() << "unexpected delta group " << rel::RowToString(r);
    }
  }
}

TEST(PropagateTest, DeltaSchemaIsSummarySchemaPlusTaint) {
  rel::Catalog c = TinyCatalog();
  AugmentedView v = ScdView(c);
  Table sd = ComputeSummaryDelta(c, v, SmallChanges(c));
  const rel::Schema summary = ViewOutputSchema(c, v.physical);
  ASSERT_EQ(sd.schema().NumColumns(), summary.NumColumns() + 1);
  for (size_t i = 0; i < summary.NumColumns(); ++i) {
    EXPECT_EQ(sd.schema().column(i).name, summary.column(i).name);
  }
  EXPECT_EQ(sd.schema().column(summary.NumColumns()).name, kTaintedColumn);
  EXPECT_EQ(sd.name(), "sd_sCD_sales");
}

TEST(PropagateTest, TaintColumnReflectsDeletions) {
  rel::Catalog c = TinyCatalog();
  AugmentedView v = SidView(c);
  Table sd = ComputeSummaryDelta(c, v, SmallChanges(c));
  const size_t taint = sd.schema().Resolve(kTaintedColumn);
  for (const rel::Row& r : sd.MaterializeRows()) {
    const bool pure_insert_group =
        r[0].as_int64() == 2 && r[1].as_int64() == 10;
    EXPECT_EQ(r[taint].as_int64(), pure_insert_group ? 0 : 1)
        << rel::RowToString(r);
  }
}

TEST(PropagateTest, EmptyChangesYieldEmptyDelta) {
  rel::Catalog c = TinyCatalog();
  ChangeSet changes;
  changes.fact_table = "pos";
  changes.fact = DeltaSet(c.GetTable("pos").schema());
  Table sd = ComputeSummaryDelta(c, SidView(c), changes);
  EXPECT_EQ(sd.NumRows(), 0u);
}

TEST(DeltaAggregatesTest, CountBecomesSumMinStaysMin) {
  rel::Catalog c = TinyCatalog();
  ViewDef v;
  v.name = "m";
  v.fact_table = "pos";
  v.group_by = {"storeID"};
  v.aggregates = {rel::CountStar("n"),
                  rel::Min(Expression::Column("date"), "lo"),
                  rel::Max(Expression::Column("date"), "hi")};
  AugmentedView av = AugmentForSelfMaintenance(c, v);
  const std::vector<rel::AggregateSpec> specs = DeltaAggregates(av);
  // COUNT(*) -> SUM, MIN -> MIN, MAX -> MAX, companions -> SUM.
  EXPECT_EQ(specs[0].kind, rel::AggregateKind::kSum);
  EXPECT_EQ(specs[1].kind, rel::AggregateKind::kMin);
  EXPECT_EQ(specs[2].kind, rel::AggregateKind::kMax);
  for (const rel::AggregateSpec& s : specs) {
    EXPECT_NE(s.kind, rel::AggregateKind::kCount);
    EXPECT_NE(s.kind, rel::AggregateKind::kCountStar);
  }
}

TEST(ApplyDerivationTest, RecipeAggregatesParentRows) {
  // Hand-built recipe: city totals from (storeID) totals via stores.
  rel::Catalog c = TinyCatalog();
  rel::Schema parent_schema;
  parent_schema.AddColumn("storeID", rel::ValueType::kInt64);
  parent_schema.AddColumn("n", rel::ValueType::kInt64);
  Table parent(parent_schema, "by_store");
  parent.Insert({Value::Int64(1), Value::Int64(3)});
  parent.Insert({Value::Int64(2), Value::Int64(3)});

  DerivationRecipe recipe;
  recipe.child_name = "by_region";
  recipe.parent_name = "by_store";
  recipe.joins = {DimensionJoin{"stores", "storeID", "storeID"}};
  recipe.group_by = {rel::GroupByColumn{"stores.region", "region"}};
  recipe.aggregates = {rel::Sum(Expression::Column("n"), "n")};

  Table out = ApplyDerivation(c, recipe, parent);
  ASSERT_EQ(out.NumRows(), 2u);  // west and east
  for (const rel::Row& r : out.MaterializeRows()) {
    EXPECT_EQ(r[1].as_int64(), 3);
  }
  EXPECT_EQ(out.name(), "sd_by_region");
}

}  // namespace
}  // namespace sdelta::core
