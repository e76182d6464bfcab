#ifndef SDELTA_PERFBENCH_WORKLOAD_H_
#define SDELTA_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/delta.h"
#include "core/view_def.h"
#include "relational/catalog.h"
#include "relational/table.h"
#include "warehouse/retail_schema.h"

namespace perfbench {

/// The paper's experimental configuration (§6), as bench/bench_common.h's
/// PaperConfig(500000): pos 500k rows over 100 stores / 30 cities /
/// 5 regions / 1000 items / 20 categories / 365 dates. Kept here so the
/// benchmark's inputs do not move when the repository's benches change.
sdelta::warehouse::RetailConfig PaperConfig();

/// The paper's two change classes for pos (§6).
enum class ChangeClass {
  /// Half deletions of existing pos rows, half insertions over existing
  /// store/item/date values: mostly in-place summary updates, and
  /// deletions that tie SiC_sales's MIN(date).
  kUpdate,
  /// Insertions over three dates past the newest one in pos: new
  /// date groups, no deletions, no MIN/MAX recompute.
  kInsertion,
};

/// An aggregate query the readers run, with an independent oracle: its
/// expected answer is maintained incrementally from the generated change
/// rows, not by the program under test.
struct ReaderQuery {
  std::string name;
  std::string sql;
  sdelta::core::ViewDef def;
  /// The one group-by column, and how a pos row maps to its value.
  std::string group_column;
  enum class Key { kRegion, kDate, kItem } key = Key::kItem;
};

/// The reader query set: totals by region (answered from sR_sales), by
/// date (sCD_sales) and by item (SID_sales, the 500k-group view).
std::vector<ReaderQuery> MakeReaderQueries(const sdelta::rel::Catalog& catalog);

/// Expected answers of the reader queries, maintained over the mirror.
class QueryOracle {
 public:
  QueryOracle(const sdelta::rel::Catalog& mirror,
              std::vector<ReaderQuery> queries);

  const std::vector<ReaderQuery>& queries() const { return queries_; }
  /// Folds one change set into the expected answers.
  void Apply(const sdelta::core::ChangeSet& changes);
  /// Digest of query `q`'s current expected answer.
  uint64_t Digest(size_t q) const;

  /// Digest of an answer table with columns (group, n, q): the same
  /// canonical form Digest() hashes.
  static uint64_t DigestOfAnswer(const sdelta::rel::Table& rows,
                                 const ReaderQuery& query);

 private:
  struct Agg {
    int64_t count = 0;
    int64_t qty = 0;
  };
  std::string KeyOf(const ReaderQuery& query,
                    const sdelta::rel::Row& row) const;
  void Fold(const sdelta::rel::Table& rows, int64_t sign);

  std::vector<ReaderQuery> queries_;
  std::map<int64_t, std::string> region_of_store_;
  /// Per query: group value (Value::ToString) -> aggregates.
  std::vector<std::map<std::string, Agg>> expected_;
};

/// Generates change sets from a seed against a mirror of the warehouse's
/// base data, and applies each one to the mirror, so the mirror always
/// equals what the service should hold after the same appends.
class ChangeGenerator {
 public:
  explicit ChangeGenerator(uint64_t seed);

  const sdelta::rel::Catalog& mirror() const { return mirror_; }
  QueryOracle& oracle() { return oracle_; }

  /// The next change set of class `cls` with `rows` change rows. It is
  /// applied to the mirror and the query oracle before it is returned.
  sdelta::core::ChangeSet Next(ChangeClass cls, size_t rows);

 private:
  sdelta::rel::Catalog mirror_;
  QueryOracle oracle_;
  std::mt19937_64 rng_;
  int64_t max_date_ = 0;
};

}  // namespace perfbench

#endif  // SDELTA_PERFBENCH_WORKLOAD_H_
