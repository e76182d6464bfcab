// Differential tests for the batched MIN/MAX recompute: a typed filter
// over the fact table selects the rows of the groups being recomputed,
// and only those rows are joined and aggregated. Every case maintains a
// view through a batch that forces recomputes and checks the result
// against EvaluateView over the updated base data, at 1 and 4 threads,
// byte for byte. Fact tables hold 20k rows so the filter splits into
// several morsels when a pool is attached.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/maintenance.h"
#include "core/propagate.h"
#include "core/refresh.h"
#include "exec/thread_pool.h"
#include "relational/csv.h"
#include "test_util.h"
#include "warehouse/retail_schema.h"
#include "warehouse/workload.h"

namespace sdelta::core {
namespace {

using rel::Expression;
using rel::Row;
using rel::Value;
using rel::ValueType;

constexpr size_t kSalesRows = 20000;

/// kDemoted corrupts the sales table's storage for the demoted-column
/// cases.
enum class Storage { kTyped, kDemoted };

/// kQuarters keeps every price a multiple of 1/4, so double SUMs are
/// exact in any addition order; kInexact does not.
enum class Prices { kQuarters, kInexact };

/// A star schema with the awkward cases built in:
///   stores(storeID, city, region)  — every fifth city is NULL;
///   items(itemID, category)        — 50 items over 6 categories;
///   channels(channel, kind)        — "kiosk" is missing, so sales rows
///                                    on it dangle on a string FK;
///   sales(storeID, itemID, date, qty, price, channel) — some itemIDs
///                                    are NULL, some dangle (999).
/// kDemoted appends rows whose storeID is a non-integral double and
/// whose channel is an int64, demoting both columns to boxed storage.
rel::Catalog StarCatalog(Storage storage = Storage::kTyped,
                         Prices prices = Prices::kQuarters) {
  rel::Catalog c;

  rel::Schema stores_s;
  stores_s.AddColumn("storeID", ValueType::kInt64);
  stores_s.AddColumn("city", ValueType::kString);
  stores_s.AddColumn("region", ValueType::kString);
  rel::Table stores(stores_s, "stores");
  for (int64_t s = 1; s <= 20; ++s) {
    stores.Insert({Value::Int64(s),
                   s % 5 == 0 ? Value::Null()
                              : Value::String("city" + std::to_string(s % 4)),
                   Value::String(s % 2 == 0 ? "east" : "west")});
  }
  c.AddTable(std::move(stores));

  rel::Schema items_s;
  items_s.AddColumn("itemID", ValueType::kInt64);
  items_s.AddColumn("category", ValueType::kString);
  rel::Table items(items_s, "items");
  for (int64_t i = 100; i < 150; ++i) {
    items.Insert(
        {Value::Int64(i), Value::String("cat" + std::to_string(i % 6))});
  }
  c.AddTable(std::move(items));

  rel::Schema channels_s;
  channels_s.AddColumn("channel", ValueType::kString);
  channels_s.AddColumn("kind", ValueType::kString);
  rel::Table channels(channels_s, "channels");
  channels.Insert({Value::String("web"), Value::String("online")});
  channels.Insert({Value::String("store"), Value::String("offline")});
  channels.Insert({Value::String("phone"), Value::String("online")});
  c.AddTable(std::move(channels));

  rel::Schema sales_s;
  sales_s.AddColumn("storeID", ValueType::kInt64);
  sales_s.AddColumn("itemID", ValueType::kInt64);
  sales_s.AddColumn("date", ValueType::kInt64);
  sales_s.AddColumn("qty", ValueType::kInt64);
  sales_s.AddColumn("price", ValueType::kDouble);
  sales_s.AddColumn("channel", ValueType::kString);
  rel::Table sales(sales_s, "sales");
  const char* kChannels[] = {"web", "store", "phone", "kiosk"};
  for (int64_t r = 0; r < static_cast<int64_t>(kSalesRows); ++r) {
    Value item = Value::Int64(100 + (r * 7) % 50);
    if (r % 97 == 0) item = Value::Null();
    if (r % 89 == 0) item = Value::Int64(999);
    sales.Insert({Value::Int64(1 + (r * 13) % 20), std::move(item),
                  Value::Int64(1 + (r * 31) % 365), Value::Int64(1 + r % 9),
                  Value::Double((prices == Prices::kQuarters ? 0.25 : 0.37) *
                                static_cast<double>(r % 13)),
                  Value::String(kChannels[(r / 3) % 4])});
  }
  if (storage == Storage::kDemoted) {
    // Rows 20000..20011; MixedSalesBatch deletes row 20009, which ties
    // the group's MIN(price) and so forces a recompute of a group whose
    // key escapes the packed path.
    for (int64_t k = 0; k < 12; ++k) {
      sales.Insert({Value::Double(2.5), Value::Int64(101),
                    Value::Int64(40 + k), Value::Int64(3), Value::Double(1.5),
                    Value::Int64(7)});
    }
  }
  c.AddTable(std::move(sales));

  c.DeclareForeignKey("sales", "storeID", "stores", "storeID");
  c.DeclareForeignKey("sales", "itemID", "items", "itemID");
  c.DeclareForeignKey("sales", "channel", "channels", "channel");
  return c;
}

/// Deletes every 11th sales row (ties and beats many group extrema) and
/// inserts a few rows beyond them, so the batch mixes in-place updates
/// with recomputes.
ChangeSet MixedSalesBatch(const rel::Catalog& c) {
  const rel::Table& sales = c.GetTable("sales");
  ChangeSet changes;
  changes.fact_table = "sales";
  changes.fact = DeltaSet(sales.schema());
  for (size_t r = 0; r < sales.NumRows(); r += 11) {
    changes.fact.deletions.Insert(sales.RowAt(r));
  }
  for (int64_t s = 1; s <= 20; s += 3) {
    changes.fact.insertions.Insert(
        {Value::Int64(s), Value::Int64(100 + s), Value::Int64(400 + s),
         Value::Int64(2), Value::Double(0.25 * static_cast<double>(s)),
         Value::String("web")});
  }
  return changes;
}

std::vector<rel::AggregateSpec> SalesAggregates() {
  return {rel::CountStar("n"),
          rel::Min(Expression::Column("date"), "first_day"),
          rel::Max(Expression::Column("date"), "last_day"),
          rel::Sum(Expression::Column("qty"), "units"),
          rel::Sum(Expression::Column("price"), "revenue"),
          rel::Min(Expression::Column("price"), "cheapest")};
}

/// Runs one maintenance batch of `view` at 1 and 4 threads: each run
/// must equal EvaluateView over the updated base data, and the two runs
/// must agree byte for byte (CSV, so double SUMs to the last bit) and in
/// every refresh counter. Returns the serial run's stats. With
/// `approx_doubles`, the oracle compares doubles to 1e-9: groups
/// updated in place add their doubles in a different order than a
/// recomputation does.
RefreshStats ExpectRecomputeMatchesOracle(
    const std::function<rel::Catalog()>& make_catalog, const ViewDef& view,
    const std::function<ChangeSet(const rel::Catalog&)>& make_changes,
    bool approx_doubles = false) {
  std::vector<std::string> csv;
  std::vector<RefreshStats> stats;
  for (const size_t threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    rel::Catalog catalog = make_catalog();
    const AugmentedView av = AugmentForSelfMaintenance(catalog, view);
    SummaryTable st(av, catalog);
    st.MaterializeFrom(catalog);
    const ChangeSet changes = make_changes(catalog);
    const rel::Table delta = ComputeSummaryDelta(catalog, av, changes);
    ApplyChangeSet(catalog, changes);
    std::unique_ptr<exec::ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<exec::ThreadPool>(threads - 1);
    exec::Context ctx;
    ctx.pool = pool.get();
    stats.push_back(Refresh(catalog, st, delta, {}, ctx));
    const rel::Table expected = EvaluateView(catalog, av.physical);
    if (approx_doubles) {
      sdelta::testing::ExpectBagApproxEq(expected, st.ToTable());
    } else {
      sdelta::testing::ExpectBagEq(expected, st.ToTable());
    }
    csv.push_back(rel::ToCsvString(st.ToTable()));
  }
  EXPECT_EQ(csv[0], csv[1]);
  EXPECT_EQ(stats[0].recomputed_groups, stats[1].recomputed_groups);
  EXPECT_EQ(stats[0].recompute_scan_rows, stats[1].recompute_scan_rows);
  EXPECT_EQ(stats[0].recompute_rows_aggregated,
            stats[1].recompute_rows_aggregated);
  EXPECT_EQ(stats[0].key_packed_ops, stats[1].key_packed_ops);
  EXPECT_EQ(stats[0].key_fallback_ops, stats[1].key_fallback_ops);
  // The batch must reach the recompute.
  EXPECT_GT(stats[0].recomputed_groups, 0u);
  EXPECT_GT(stats[0].recompute_rows_aggregated, 0u);
  EXPECT_LE(stats[0].recompute_rows_aggregated,
            stats[0].recompute_scan_rows);
  return stats[0];
}

ViewDef SalesView(std::vector<DimensionJoin> joins,
                  std::vector<std::string> group_by) {
  ViewDef v;
  v.name = "sales_view";
  v.fact_table = "sales";
  v.joins = std::move(joins);
  v.group_by = std::move(group_by);
  v.aggregates = SalesAggregates();
  return v;
}

const DimensionJoin kStores{"stores", "storeID", "storeID"};
const DimensionJoin kItems{"items", "itemID", "itemID"};
const DimensionJoin kChannels{"channels", "channel", "channel"};

TEST(RestrictedRecomputeTest, GroupKeyFromTwoDimensions) {
  // city comes from stores, category from items: two dimension parts.
  // Every fifth store has a NULL city, so NULL group values ride along.
  const RefreshStats stats = ExpectRecomputeMatchesOracle(
      [] { return StarCatalog(); },
      SalesView({kStores, kItems}, {"city", "category"}), MixedSalesBatch);
  EXPECT_EQ(stats.recompute_scan_rows,
            kSalesRows - (kSalesRows + 10) / 11 + 7);
  EXPECT_LT(stats.recompute_rows_aggregated, stats.recompute_scan_rows);
}

TEST(RestrictedRecomputeTest, InexactDoubleSumsAgreeAcrossThreadCounts) {
  // Survivors accumulate in fact-row order at every thread count, so a
  // recomputed double SUM is the same to the last bit at 1 and 4.
  ExpectRecomputeMatchesOracle(
      [] { return StarCatalog(Storage::kTyped, Prices::kInexact); },
      SalesView({kStores, kItems}, {"storeID", "category"}), MixedSalesBatch,
      /*approx_doubles=*/true);
}

TEST(RestrictedRecomputeTest, FactOnlyGroupKey) {
  // No joins at all: the filter reads only the fact table's columns.
  ExpectRecomputeMatchesOracle([] { return StarCatalog(); },
                               SalesView({}, {"storeID", "channel"}),
                               MixedSalesBatch);
}

TEST(RestrictedRecomputeTest, FactAndDimensionGroupKey) {
  // storeID from the fact table, category through the items FK; the
  // stores join supplies no group column.
  ExpectRecomputeMatchesOracle(
      [] { return StarCatalog(); },
      SalesView({kStores, kItems}, {"storeID", "category"}),
      MixedSalesBatch);
}

TEST(RestrictedRecomputeTest, EveryGroupRecomputed) {
  // Deleting every third row recomputes every (storeID, category) group:
  // the filter then admits nearly every row and must still be exact.
  // With no group updated in place, even inexact double SUMs must match
  // the oracle's to the last bit — both add in fact-row order.
  const RefreshStats stats = ExpectRecomputeMatchesOracle(
      [] { return StarCatalog(Storage::kTyped, Prices::kInexact); },
      SalesView({kItems}, {"storeID", "category"}),
      [](const rel::Catalog& c) {
        const rel::Table& sales = c.GetTable("sales");
        ChangeSet changes;
        changes.fact_table = "sales";
        changes.fact = DeltaSet(sales.schema());
        for (size_t r = 0; r < sales.NumRows(); r += 3) {
          changes.fact.deletions.Insert(sales.RowAt(r));
        }
        return changes;
      });
  // storeID and itemID advance in lockstep, so the data holds 60 of the
  // 120 (storeID, category) pairs; all of them are recomputed.
  EXPECT_EQ(stats.recomputed_groups, 60u);
}

TEST(RestrictedRecomputeTest, WhereOverDimensionAttribute) {
  // region is read only by WHERE, from a dimension that supplies no
  // group column: the filter selects the group's rows, WHERE drops the
  // western ones afterwards.
  ViewDef v = SalesView({kStores, kItems}, {"category"});
  v.where = Expression::Eq(Expression::Column("region"),
                           Expression::Literal(Value::String("east")));
  ExpectRecomputeMatchesOracle([] { return StarCatalog(); }, v,
                               MixedSalesBatch);
}

TEST(RestrictedRecomputeTest, NullAndDanglingForeignKeys) {
  // Rows with a NULL itemID or itemID 999 join no item, so they belong
  // to no group — even though the fact-side storeID matches.
  ExpectRecomputeMatchesOracle([] { return StarCatalog(); },
                               SalesView({kItems}, {"storeID", "category"}),
                               MixedSalesBatch);
}

TEST(RestrictedRecomputeTest, NullGroupValue) {
  // city alone: the NULL-city group is among those recomputed.
  ViewDef v = SalesView({kStores}, {"city"});
  ExpectRecomputeMatchesOracle([] { return StarCatalog(); }, v,
                               MixedSalesBatch);
  rel::Catalog c = StarCatalog();
  ChangeSet changes = MixedSalesBatch(c);
  const AugmentedView av = AugmentForSelfMaintenance(c, v);
  const rel::Table delta = ComputeSummaryDelta(c, av, changes);
  bool null_group = false;
  for (size_t r = 0; r < delta.NumRows(); ++r) {
    null_group |= delta.ValueAt(r, 0).is_null();
  }
  EXPECT_TRUE(null_group);
}

TEST(RestrictedRecomputeTest, DemotedFactColumns) {
  // storeID and channel are boxed: keys of typed values and escaping
  // ones (the 2.5 storeID, the int64 channel) both go through the
  // filter's boxed path.
  auto demoted = [] { return StarCatalog(Storage::kDemoted); };
  ASSERT_TRUE(demoted().GetTable("sales").column_data(0).boxed());
  ASSERT_TRUE(demoted().GetTable("sales").column_data(5).boxed());
  ExpectRecomputeMatchesOracle(demoted,
                               SalesView({kItems}, {"storeID", "channel"}),
                               MixedSalesBatch);
  ExpectRecomputeMatchesOracle(
      demoted, SalesView({kItems}, {"channel", "category"}), MixedSalesBatch);
}

TEST(RestrictedRecomputeTest, StringsAbsentFromTheDictionary) {
  // "kiosk" sales dangle on a string FK that the channels dictionary has
  // never seen; with channel demoted, the fact-side filter's own
  // dictionary also lacks every string outside the recompute set.
  ExpectRecomputeMatchesOracle([] { return StarCatalog(); },
                               SalesView({kChannels}, {"kind", "storeID"}),
                               MixedSalesBatch);
  ExpectRecomputeMatchesOracle(
      [] { return StarCatalog(Storage::kDemoted); },
      SalesView({}, {"channel"}), MixedSalesBatch);
}

TEST(RestrictedRecomputeTest, ItemRecategorizationUsesUpdatedDimension) {
  // Recategorized items move pos rows between SiC groups; the freshly
  // appearing tainted groups are recomputed, and the per-dimension codes
  // must come from the items table after the update.
  warehouse::RetailConfig config;
  config.num_stores = 12;
  config.num_items = 60;
  config.num_categories = 5;
  config.num_pos_rows = kSalesRows;
  config.seed = 77;
  ViewDef sic;
  for (const ViewDef& v : warehouse::RetailSummaryTables()) {
    if (v.name == "SiC_sales") sic = v;
  }
  ASSERT_EQ(sic.name, "SiC_sales");
  ExpectRecomputeMatchesOracle(
      [&config] { return warehouse::MakeRetailCatalog(config); }, sic,
      [](const rel::Catalog& c) {
        return warehouse::MakeItemRecategorization(c, 8, 5);
      });
}

}  // namespace
}  // namespace sdelta::core
