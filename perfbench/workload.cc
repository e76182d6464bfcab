#include "workload.h"

#include <unordered_set>

#include "core/sql_parser.h"

namespace perfbench {

using sdelta::core::ChangeSet;
using sdelta::core::DeltaSet;
using sdelta::rel::Row;
using sdelta::rel::Table;
using sdelta::rel::Value;

namespace {

// pos(storeID, itemID, date, qty, price) column positions.
constexpr size_t kStore = 0;
constexpr size_t kItem = 1;
constexpr size_t kDate = 2;
constexpr size_t kQty = 3;

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

}  // namespace

sdelta::warehouse::RetailConfig PaperConfig() {
  sdelta::warehouse::RetailConfig config;
  config.num_stores = 100;
  config.num_cities = 30;
  config.num_regions = 5;
  config.num_items = 1000;
  config.num_categories = 20;
  config.num_dates = 365;
  config.num_pos_rows = 500000;
  config.seed = 4242;
  return config;
}

std::vector<ReaderQuery> MakeReaderQueries(const sdelta::rel::Catalog& catalog) {
  std::vector<ReaderQuery> queries = {
      {"by_region",
       "SELECT region, COUNT(*) AS n, SUM(qty) AS q FROM pos, stores "
       "WHERE pos.storeID = stores.storeID GROUP BY region",
       {}, "region", ReaderQuery::Key::kRegion},
      {"by_date",
       "SELECT date, COUNT(*) AS n, SUM(qty) AS q FROM pos GROUP BY date",
       {}, "date", ReaderQuery::Key::kDate},
      {"by_item",
       "SELECT itemID, COUNT(*) AS n, SUM(qty) AS q FROM pos GROUP BY itemID",
       {}, "itemID", ReaderQuery::Key::kItem},
  };
  for (ReaderQuery& q : queries) {
    q.def = sdelta::core::ParseQuery(catalog, q.sql);
  }
  return queries;
}

QueryOracle::QueryOracle(const sdelta::rel::Catalog& mirror,
                         std::vector<ReaderQuery> queries)
    : queries_(std::move(queries)), expected_(queries_.size()) {
  const Table& stores = mirror.GetTable("stores");
  const size_t sid = stores.schema().Resolve("storeID");
  const size_t region = stores.schema().Resolve("region");
  for (size_t r = 0; r < stores.NumRows(); ++r) {
    region_of_store_[stores.ValueAt(r, sid).as_int64()] =
        stores.ValueAt(r, region).ToString();
  }
  Fold(mirror.GetTable("pos"), 1);
}

std::string QueryOracle::KeyOf(const ReaderQuery& query, const Row& row) const {
  switch (query.key) {
    case ReaderQuery::Key::kRegion:
      return region_of_store_.at(row[kStore].as_int64());
    case ReaderQuery::Key::kDate:
      return row[kDate].ToString();
    case ReaderQuery::Key::kItem:
      return row[kItem].ToString();
  }
  return {};
}

void QueryOracle::Fold(const Table& rows, int64_t sign) {
  for (size_t r = 0; r < rows.NumRows(); ++r) {
    const Row row = rows.RowAt(r);
    for (size_t q = 0; q < queries_.size(); ++q) {
      auto& groups = expected_[q];
      const std::string key = KeyOf(queries_[q], row);
      Agg& agg = groups[key];
      agg.count += sign;
      agg.qty += sign * row[kQty].as_int64();
      if (agg.count == 0) groups.erase(key);
    }
  }
}

void QueryOracle::Apply(const ChangeSet& changes) {
  Fold(changes.fact.insertions, 1);
  Fold(changes.fact.deletions, -1);
}

uint64_t QueryOracle::Digest(size_t q) const {
  uint64_t h = kFnvOffset;
  for (const auto& [key, agg] : expected_[q]) {
    h = Fnv1a(h, key + "|" + std::to_string(agg.count) + "|" +
                     std::to_string(agg.qty) + ";");
  }
  return h;
}

uint64_t QueryOracle::DigestOfAnswer(const Table& rows,
                                     const ReaderQuery& query) {
  const size_t g = rows.schema().Resolve(query.group_column);
  const size_t n = rows.schema().Resolve("n");
  const size_t q = rows.schema().Resolve("q");
  std::map<std::string, std::string> canonical;
  for (size_t r = 0; r < rows.NumRows(); ++r) {
    canonical[rows.ValueAt(r, g).ToString()] =
        std::to_string(rows.ValueAt(r, n).as_int64()) + "|" +
        std::to_string(rows.ValueAt(r, q).as_int64());
  }
  uint64_t h = kFnvOffset;
  for (const auto& [key, aggs] : canonical) {
    h = Fnv1a(h, key + "|" + aggs + ";");
  }
  return h;
}

ChangeGenerator::ChangeGenerator(uint64_t seed)
    : mirror_(sdelta::warehouse::MakeRetailCatalog(PaperConfig())),
      oracle_(mirror_, MakeReaderQueries(mirror_)),
      rng_(seed),
      max_date_(static_cast<int64_t>(PaperConfig().num_dates)) {}

ChangeSet ChangeGenerator::Next(ChangeClass cls, size_t rows) {
  Table& pos = mirror_.GetTable("pos");
  ChangeSet changes;
  changes.fact_table = "pos";
  changes.fact = DeltaSet(pos.schema());

  std::uniform_int_distribution<int64_t> store(
      1, static_cast<int64_t>(PaperConfig().num_stores));
  std::uniform_int_distribution<int64_t> item(
      1, static_cast<int64_t>(PaperConfig().num_items));
  std::uniform_int_distribution<int64_t> qty(1, 10);
  std::uniform_real_distribution<double> price(1.0, 500.0);
  const auto insert = [&](int64_t date) {
    changes.fact.insertions.Insert({Value::Int64(store(rng_)),
                                    Value::Int64(item(rng_)),
                                    Value::Int64(date), Value::Int64(qty(rng_)),
                                    Value::Double(price(rng_))});
  };

  if (cls == ChangeClass::kUpdate) {
    // Distinct positions, so a duplicated row is only deleted as often as
    // the bag holds it.
    const size_t deletions = std::min(rows / 2, pos.NumRows());
    std::uniform_int_distribution<size_t> at(0, pos.NumRows() - 1);
    std::unordered_set<size_t> picked;
    while (picked.size() < deletions) {
      const size_t p = at(rng_);
      if (picked.insert(p).second) changes.fact.deletions.Insert(pos.RowAt(p));
    }
    std::uniform_int_distribution<int64_t> date(1, max_date_);
    for (size_t k = deletions; k < rows; ++k) insert(date(rng_));
  } else {
    // A nightly load lands on a handful of fresh dates.
    constexpr int64_t kNewDates = 3;
    std::uniform_int_distribution<int64_t> date(max_date_ + 1,
                                                max_date_ + kNewDates);
    for (size_t k = 0; k < rows; ++k) insert(date(rng_));
    max_date_ += kNewDates;
  }
  sdelta::core::ApplyChangeSet(mirror_, changes);
  oracle_.Apply(changes);
  return changes;
}

}  // namespace perfbench
