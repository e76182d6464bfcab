#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/delta.h"
#include "obs/event_log.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "service/service.h"
#include "warehouse/retail_schema.h"
#include "warehouse/workload.h"

namespace sdelta::service {
namespace {

namespace fs = std::filesystem;

warehouse::RetailConfig SmallConfig() {
  warehouse::RetailConfig config;
  config.num_stores = 10;
  config.num_cities = 5;
  config.num_regions = 3;
  config.num_items = 50;
  config.num_categories = 6;
  config.num_dates = 20;
  config.num_pos_rows = 1200;
  config.seed = 77;
  return config;
}

constexpr char kRegionQuery[] =
    "SELECT region, SUM(qty) AS q FROM pos, stores "
    "WHERE pos.storeID = stores.storeID GROUP BY region";

/// One HTTP/1.0 GET against the service's loopback endpoint.
std::string Get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    ADD_FAILURE() << "connect failed for " << path;
    return {};
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sdelta_obs_svc_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    mirror_ = warehouse::MakeRetailCatalog(SmallConfig());
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<WarehouseService> OpenService(
      WarehouseService::Options options = {}) {
    options.auto_batching = false;
    return WarehouseService::Open(dir_.string(),
                                  warehouse::MakeRetailCatalog(SmallConfig()),
                                  warehouse::RetailSummaryTables(), options);
  }

  core::ChangeSet NextChanges(size_t size, uint64_t seed) {
    core::ChangeSet changes =
        warehouse::MakeInsertionGeneratingChanges(mirror_, size, seed);
    core::ApplyChangeSet(mirror_, changes);
    return changes;
  }

  fs::path dir_;
  rel::Catalog mirror_;
};

TEST_F(ObservabilityTest, BatchIdsAreMonotonicAndCorrelateEvents) {
  auto svc = OpenService();
  for (uint64_t i = 1; i <= 3; ++i) {
    svc->Append(NextChanges(60, i));
    svc->Flush();
    EXPECT_EQ(svc->GetStats().last_batch_id, i);
  }

  const obs::EventLog& events = svc->events();
  EXPECT_EQ(events.count(obs::EventType::kBatchStart), 3u);
  EXPECT_EQ(events.count(obs::EventType::kBatchEnd), 3u);
  EXPECT_EQ(events.count(obs::EventType::kEpochInstall), 3u);

  // Every batch-lifecycle event carries the drain's batch_id, and the
  // ids the log saw are exactly 1, 2, 3 in order.
  std::vector<uint64_t> start_ids;
  for (const obs::Event& e : events.Snapshot()) {
    if (e.type == obs::EventType::kBatchStart) start_ids.push_back(e.batch_id);
    if (e.type == obs::EventType::kBatchEnd ||
        e.type == obs::EventType::kEpochInstall) {
      EXPECT_GT(e.batch_id, 0u);
    }
  }
  EXPECT_EQ(start_ids, (std::vector<uint64_t>{1, 2, 3}));
}

TEST_F(ObservabilityTest, TraceTreeConnectsBatchToWarehouseRuns) {
  obs::Tracer tracer;
  WarehouseService::Options options;
  options.tracer = &tracer;
  auto svc = OpenService(std::move(options));
  svc->Append(NextChanges(80, 1));
  svc->Flush();
  (void)svc->Snapshot().Query(kRegionQuery);
  svc->Stop();  // quiesce before reading spans

  uint64_t batch_id = 0, install_parent = 0, run_parent = 0;
  bool saw_append = false, saw_query = false;
  for (const obs::SpanRecord& span : tracer.spans()) {
    if (span.name == "service.batch") batch_id = span.id;
    if (span.name == "service.epoch_install") install_parent = span.parent_id;
    if (span.name == "warehouse.RunBatch") run_parent = span.parent_id;
    if (span.name == "service.append") saw_append = true;
    if (span.name == "service.query") saw_query = true;
  }
  ASSERT_GT(batch_id, 0u);
  // The warehouse's RunBatch span and the epoch install both hang off
  // the same service.batch root: one connected tree per drain.
  EXPECT_EQ(run_parent, batch_id);
  EXPECT_EQ(install_parent, batch_id);
  EXPECT_TRUE(saw_append);
  EXPECT_TRUE(saw_query);
}

TEST_F(ObservabilityTest, EpochBuildAndRetireHaveTheirOwnSpans) {
  obs::Tracer tracer;
  WarehouseService::Options options;
  options.tracer = &tracer;
  auto svc = OpenService(std::move(options));
  svc->Append(NextChanges(80, 1));
  svc->Flush();
  svc->Stop();  // quiesce before reading spans

  uint64_t batch_id = 0, build_parent = 0, retire_parent = 0;
  std::map<std::string, std::string> build_attrs;
  for (const obs::SpanRecord& span : tracer.spans()) {
    if (span.name == "service.batch") batch_id = span.id;
    if (span.name == "service.epoch_build") {
      build_parent = span.parent_id;
      build_attrs.insert(span.attributes.begin(), span.attributes.end());
    }
    if (span.name == "service.epoch_retire") retire_parent = span.parent_id;
  }
  ASSERT_GT(batch_id, 0u);
  EXPECT_EQ(build_parent, batch_id);
  EXPECT_EQ(retire_parent, batch_id);
  // Insertion-generating changes touch every retail view, so the epoch
  // rebuilds all four and shares none.
  EXPECT_EQ(build_attrs["views_rebuilt"], "4");
  EXPECT_EQ(build_attrs["views_shared"], "0");
  EXPECT_GT(svc->metrics().gauge("service.epoch_build_seconds"), 0.0);
}

TEST_F(ObservabilityTest, SlowQueryEventsCarryDistinctRequestIds) {
  WarehouseService::Options options;
  options.slow_query_threshold_seconds = 0.0;  // every query is "slow"
  auto svc = OpenService(std::move(options));
  (void)svc->Snapshot().Query(kRegionQuery);
  (void)svc->Snapshot().Query(kRegionQuery);

  EXPECT_EQ(svc->events().count(obs::EventType::kSlowQuery), 2u);
  EXPECT_EQ(svc->metrics().counter("service.slow_queries"), 2u);
  std::vector<uint64_t> request_ids;
  for (const obs::Event& e : svc->events().Snapshot()) {
    if (e.type == obs::EventType::kSlowQuery) request_ids.push_back(e.request_id);
  }
  ASSERT_EQ(request_ids.size(), 2u);
  EXPECT_GT(request_ids[0], 0u);
  EXPECT_LT(request_ids[0], request_ids[1]);
}

TEST_F(ObservabilityTest, RecoveryReplayIsRecordedAsAnEvent) {
  {
    auto svc = OpenService();
    // Appends reach the WAL; no Checkpoint, so the tail replays on the
    // next Open.
    svc->Append(NextChanges(50, 1));
    svc->Append(NextChanges(50, 2));
  }
  auto svc = OpenService();
  EXPECT_EQ(svc->GetStats().recovered_records, 2u);
  ASSERT_EQ(svc->events().count(obs::EventType::kRecoveryReplay), 1u);
  for (const obs::Event& e : svc->events().Snapshot()) {
    if (e.type == obs::EventType::kRecoveryReplay) {
      EXPECT_DOUBLE_EQ(e.value, 2.0);
    }
  }
}

TEST_F(ObservabilityTest, HealthzIsHealthyWhileServingAndNotAfterStop) {
  auto svc = OpenService();
  svc->Append(NextChanges(40, 1));
  svc->Flush();
  const WarehouseService::Health healthy = svc->CheckHealth();
  EXPECT_TRUE(healthy.wal_writable);
  EXPECT_TRUE(healthy.maintenance_alive);
  EXPECT_TRUE(healthy.queue_below_high_water);
  EXPECT_TRUE(healthy.slo_ok);
  EXPECT_TRUE(healthy.healthy());

  svc->Stop();
  EXPECT_FALSE(svc->CheckHealth().maintenance_alive);
  EXPECT_FALSE(svc->CheckHealth().healthy());
}

TEST_F(ObservabilityTest, HttpEndpointServesTheEightRoutes) {
  WarehouseService::Options options;
  options.http_port = 0;  // ephemeral loopback port
  options.profile = true;
  options.anomaly.enabled = true;
  auto svc = OpenService(std::move(options));
  svc->Append(NextChanges(60, 1));
  svc->Flush();
  const int port = svc->http_port();
  ASSERT_GT(port, 0);

  const std::string metrics = Get(port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(metrics.find("sdelta_service_appends_total 1"), std::string::npos);
  EXPECT_NE(metrics.find("sdelta_service_refresh_window_bucket"),
            std::string::npos);
  // The event-ring health gauges (capacity/occupancy/drop accounting).
  EXPECT_NE(metrics.find("sdelta_events_capacity 1024"), std::string::npos);
  EXPECT_NE(metrics.find("sdelta_events_occupancy"), std::string::npos);
  EXPECT_NE(metrics.find("sdelta_events_dropped 0"), std::string::npos);
  EXPECT_NE(metrics.find("sdelta_anomaly_checks_total"), std::string::npos);

  const std::string healthz = Get(port, "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(healthz.find("\"healthy\": true"), std::string::npos);

  EXPECT_NE(Get(port, "/varz").find("sdelta.obs.v2"), std::string::npos);
  EXPECT_NE(Get(port, "/epochs").find("\"epoch\": 2"), std::string::npos);
  EXPECT_NE(Get(port, "/events").find("sdelta.events.v1"), std::string::npos);

  // The historical layer's routes (DESIGN.md §13).
  const std::string timeseries = Get(port, "/timeseries");
  EXPECT_NE(timeseries.find("sdelta.timeseries.v1"), std::string::npos);
  EXPECT_NE(timeseries.find("service.appends"), std::string::npos);
  const std::string one_series =
      Get(port, "/timeseries?metric=service.appends");
  EXPECT_NE(one_series.find("\"metric\": \"service.appends\""),
            std::string::npos);
  EXPECT_NE(one_series.find("\"batch\": 1"), std::string::npos);
  EXPECT_NE(Get(port, "/profile").find("sdelta.profile.v1"),
            std::string::npos);
  EXPECT_NE(Get(port, "/profile?format=collapsed").find("warehouse.RunBatch"),
            std::string::npos);
  EXPECT_NE(Get(port, "/anomalies").find("sdelta.anomaly.v1"),
            std::string::npos);

  EXPECT_NE(Get(port, "/nope").find("HTTP/1.0 404"), std::string::npos);

  // Stop shuts the endpoint down with the service.
  svc->Stop();
  EXPECT_EQ(svc->http_port(), -1);
}

TEST_F(ObservabilityTest, DisabledDiagnosticsAnswerEnabledFalse) {
  WarehouseService::Options options;
  options.http_port = 0;
  options.timeseries_capacity = 0;  // profile/anomaly already default off
  auto svc = OpenService(std::move(options));
  const int port = svc->http_port();
  ASSERT_GT(port, 0);
  for (const char* path : {"/timeseries", "/profile", "/anomalies"}) {
    const std::string response = Get(port, path);
    EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos) << path;
    EXPECT_NE(response.find("\"enabled\": false"), std::string::npos) << path;
  }
  EXPECT_EQ(svc->timeseries(), nullptr);
  EXPECT_EQ(svc->profiler(), nullptr);
  EXPECT_EQ(svc->anomalies(), nullptr);
  EXPECT_EQ(svc->flight_recorder(), nullptr);
}

TEST_F(ObservabilityTest, HttpPortInUseSurfacesAsCatchableError) {
  // Occupy a loopback port so the service's bind must fail.
  const int blocker = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(blocker, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(0);
  ASSERT_EQ(::bind(blocker, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(::listen(blocker, 1), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(blocker, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  // Open must throw (not std::terminate): the endpoint starts before
  // the maintenance thread, so the constructor unwinds cleanly.
  WarehouseService::Options options;
  options.http_port = ntohs(addr.sin_port);
  EXPECT_THROW(OpenService(std::move(options)), std::runtime_error);
  ::close(blocker);
}

TEST_F(ObservabilityTest, StalledClientDoesNotBlockStop) {
  WarehouseService::Options options;
  options.http_port = 0;
  auto svc = OpenService(std::move(options));
  const int port = svc->http_port();
  ASSERT_GT(port, 0);

  // Connect and never send a byte: the acceptor thread ends up in the
  // in-flight read for this connection.
  const int stalled = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stalled, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(stalled, reinterpret_cast<sockaddr*>(&addr),
                      sizeof addr),
            0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Stop's wake byte interrupts the connection poll; this returns well
  // before the 5s per-connection I/O budget (it used to hang forever).
  const auto start = std::chrono::steady_clock::now();
  svc->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(4));
  EXPECT_EQ(svc->http_port(), -1);
  ::close(stalled);
}

/// Runs the reference workload at `num_threads` and returns the
/// normalized events document plus the SLO counters. Everything
/// returned must be byte-identical across thread counts.
struct InvarianceResult {
  std::string events_json;
  std::string timeseries_json;
  uint64_t window_violations = 0;
  uint64_t staleness_violations = 0;
};

InvarianceResult RunWorkload(const fs::path& base, size_t num_threads) {
  const fs::path dir = base / ("t" + std::to_string(num_threads));
  fs::remove_all(dir);
  rel::Catalog mirror = warehouse::MakeRetailCatalog(SmallConfig());

  WarehouseService::Options options;
  options.auto_batching = false;
  options.warehouse.num_threads = num_threads;
  // Deterministic SLO accounting: a zero window target violates on
  // every install; an infinite slow-query threshold never fires.
  options.slo.refresh_window_seconds = 0.0;
  options.slow_query_threshold_seconds =
      std::numeric_limits<double>::infinity();
  auto svc = WarehouseService::Open(dir.string(),
                                    warehouse::MakeRetailCatalog(SmallConfig()),
                                    warehouse::RetailSummaryTables(), options);
  for (uint64_t i = 1; i <= 3; ++i) {
    core::ChangeSet changes =
        warehouse::MakeInsertionGeneratingChanges(mirror, 60, i);
    core::ApplyChangeSet(mirror, changes);
    svc->Append(std::move(changes));
    svc->Flush();
    (void)svc->Snapshot().Query(kRegionQuery);
  }
  svc->Checkpoint();

  InvarianceResult result;
  obs::Json events = svc->events().ToJson();
  obs::NormalizeEventTimes(events);
  result.events_json = events.Dump(2);
  // The per-batch metric history: counters must match exactly across
  // thread counts; gauges/percentiles carry timings and exec.* series
  // are pool-shaped, so normalization zeroes/drops them.
  obs::Json timeseries = svc->timeseries()->ToJson();
  obs::NormalizeTimeSeries(timeseries);
  result.timeseries_json = timeseries.Dump(2);
  result.window_violations = svc->slo().window_violations();
  result.staleness_violations = svc->slo().staleness_violations();
  svc->Stop();
  fs::remove_all(dir);
  return result;
}

TEST_F(ObservabilityTest, EventsAndSloCountersAreThreadCountInvariant) {
  const InvarianceResult one = RunWorkload(dir_, 1);
  const InvarianceResult two = RunWorkload(dir_, 2);
  const InvarianceResult eight = RunWorkload(dir_, 8);

  // Zero window target: every install (3 batches + 1 checkpoint flush
  // path installs nothing extra) violates deterministically.
  EXPECT_EQ(one.window_violations, 3u);
  EXPECT_EQ(one.staleness_violations, 0u);
  EXPECT_EQ(two.window_violations, one.window_violations);
  EXPECT_EQ(eight.window_violations, one.window_violations);
  EXPECT_EQ(two.staleness_violations, one.staleness_violations);
  EXPECT_EQ(eight.staleness_violations, one.staleness_violations);

  EXPECT_EQ(one.events_json, two.events_json);
  EXPECT_EQ(one.events_json, eight.events_json);
  EXPECT_EQ(one.timeseries_json, two.timeseries_json);
  EXPECT_EQ(one.timeseries_json, eight.timeseries_json);
}

}  // namespace
}  // namespace sdelta::service
