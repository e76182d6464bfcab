// Concurrent-reader acceptance test (ISSUE 5): readers pinning
// snapshots and querying while the maintenance loop continuously
// installs new epochs must never observe a partially refreshed view.
//
// Invariant: within one snapshot, the total SUM(qty) is the same no
// matter which summary table answers it (region rollup vs date rollup)
// — a torn epoch, where one view is newer than another, breaks the
// equality because every batch strictly adds qty. CI runs this suite
// under TSAN as well, which proves data-race freedom of the
// epoch-swap/pin protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/delta.h"
#include "service/service.h"
#include "service/versioned.h"
#include "warehouse/retail_schema.h"
#include "warehouse/workload.h"

namespace sdelta::service {
namespace {

namespace fs = std::filesystem;

warehouse::RetailConfig SmallConfig() {
  warehouse::RetailConfig config;
  config.num_stores = 10;
  config.num_cities = 4;
  config.num_regions = 2;
  config.num_items = 40;
  config.num_categories = 5;
  config.num_dates = 15;
  config.num_pos_rows = 800;
  config.seed = 555;
  return config;
}

int64_t Total(const rel::Table& rows) {
  int64_t total = 0;
  const size_t col = rows.schema().NumColumns() - 1;
  for (const rel::Row& row : rows.MaterializeRows()) total += row[col].as_int64();
  return total;
}

TEST(ConcurrentReadersTest, SnapshotsAreAlwaysEpochConsistent) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("sdelta_readers_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  WarehouseService::Options options;
  options.auto_batching = true;
  options.queue.max_batch_rows = 64;  // install epochs aggressively
  options.queue.max_batch_delay_seconds = 0.001;
  options.warehouse.num_threads = 2;
  auto svc = WarehouseService::Open(dir.string(),
                                    warehouse::MakeRetailCatalog(SmallConfig()),
                                    warehouse::RetailSummaryTables(), options);

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> queries{0};

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const ReadSnapshot snap = svc->Snapshot();
        const int64_t by_region = Total(
            snap.Query("SELECT region, SUM(qty) AS q FROM pos, stores "
                       "WHERE pos.storeID = stores.storeID GROUP BY region")
                .rows);
        const int64_t by_date = Total(
            snap.Query("SELECT date, SUM(qty) AS q FROM pos GROUP BY date")
                .rows);
        if (by_region != by_date) {
          failed.store(true);
          ADD_FAILURE() << "torn snapshot at epoch " << snap.epoch() << ": "
                        << by_region << " (by region) vs " << by_date
                        << " (by date)";
          return;
        }
        if (snap.epoch() < last_epoch) {
          failed.store(true);
          ADD_FAILURE() << "epoch went backwards: " << last_epoch << " -> "
                        << snap.epoch();
          return;
        }
        last_epoch = snap.epoch();
        queries.fetch_add(2);
      }
    });
  }

  // Writer: a steady stream of qty-adding change sets.
  rel::Catalog mirror = warehouse::MakeRetailCatalog(SmallConfig());
  for (uint64_t i = 0; i < 25 && !failed.load(); ++i) {
    core::ChangeSet changes =
        warehouse::MakeInsertionGeneratingChanges(mirror, 60, 1000 + i);
    core::ApplyChangeSet(mirror, changes);
    svc->Append(std::move(changes));
  }
  svc->Flush();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(svc->GetStats().applied_seq, 25u);
  svc->Stop();
  svc.reset();
  fs::remove_all(dir);
}

// Install must not free the retired epoch while holding the pin mutex:
// freeing its summary tables can take milliseconds, and every reader
// calling Pin() would wait for it. The retired epoch's deleter pins from
// another thread and gives it a bounded 200 ms; a blocked pin means the
// epoch died under the lock. (The wait is bounded, so the faulty order
// fails the test instead of hanging it.)
TEST(ConcurrentReadersTest, RetiredEpochIsFreedOutsideThePinLock) {
  VersionedTables tables;
  std::thread reader;
  std::future_status pin = std::future_status::deferred;
  auto free_epoch = [&](const Epoch* epoch) {
    std::packaged_task<void()> pin_task([&tables] { tables.Pin(); });
    std::future<void> pinned = pin_task.get_future();
    reader = std::thread(std::move(pin_task));
    pin = pinned.wait_for(std::chrono::milliseconds(200));
    delete epoch;
  };
  tables.Install(std::shared_ptr<const Epoch>(new Epoch, free_epoch));
  const auto second = std::make_shared<const Epoch>();
  tables.Install(second);
  ASSERT_TRUE(reader.joinable());  // the first epoch was retired
  reader.join();
  EXPECT_EQ(pin, std::future_status::ready);
  EXPECT_EQ(tables.Current(), second);
}

}  // namespace
}  // namespace sdelta::service
