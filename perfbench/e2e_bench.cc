// End-to-end benchmark: drives WarehouseService from outside at paper
// scale (|pos| = 500k) and reports commit-to-visible latency, append and
// reader latency, throughput, set-up time and memory, then checks every
// view and every reader answer against recomputation over a mirror of the
// base data.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (BENCHMARK.json records why each exists):
//   paper_update_10k  closed loop, one producer: Append 10k update-
//                     generating changes, then Flush (auto_batching off).
//   paper_insert_1k   the same loop with 1k insertion-generating changes.
//   serve_mixed       an open-loop producer appends small change sets of
//                     alternating class at kMixedRate per second with
//                     auto_batching on, beside two closed-loop readers.
//
// --trace 0 measures for --seconds and prints the end-to-end metrics.
// --trace 1 runs the workload twice for half the time each, first as in
// --trace 0 and then with an obs::Tracer attached to the service and
// spans around the benchmark's own calls; it prints the per-layer
// metrics of the traced half, the overhead of tracing, and whether the
// exact cost counts of the two halves agree. Spans are written to
// .bench_out/ when the run ends.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is nonzero when any
// operation failed or any check did not hold.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/summary_table.h"
#include "core/view_def.h"
#include "obs/export_chrome.h"
#include "obs/trace.h"
#include "service/service.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using sdelta::service::WarehouseService;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// a / b, or 0 when nothing was measured (keeps the JSON numeric).
double Div(double a, double b) { return b > 0 ? a / b : 0; }

/// Runs `f` when the scope ends, on normal and exceptional exits alike.
template <typename F>
struct ScopeExit {
  const F& f;
  ~ScopeExit() { f(); }
};

// serve_mixed's offered load: change sets per second, rows per change
// set. Sustained without a growing backlog on a 4-CPU host: each batch
// coalesces the 7-9 change sets that arrived while the previous one ran.
constexpr double kMixedRate = 20;
constexpr size_t kMixedRows = 200;
constexpr int kReaders = 2;
// Untimed start of serve_mixed's schedule, and untimed steps of the batch
// workloads, before the timed samples start.
constexpr double kMixedWarmupSeconds = 2;
constexpr size_t kWarmupSteps = 2;
// The batch workloads' per-step reader probe: by_date, answered from
// sCD_sales (MakeReaderQueries order).
constexpr size_t kProbeQuery = 1;
// Fresh Opens per --trace 0 run; setup_s is their median.
constexpr int kSetups = 3;
// The exact cost counts of the batch workloads are averaged over this
// many timed batches, so they repeat bit-for-bit for a fixed seed.
constexpr size_t kProxyBatches = 10;

// ---------------------------------------------------------------------------
// Samples and percentiles.

struct Samples {
  std::vector<double> values;

  void Add(double v) { values.push_back(v); }
  size_t n() const { return values.size(); }
  void Merge(const Samples& o) {
    values.insert(values.end(), o.values.begin(), o.values.end());
  }
  /// Linear interpolation between closest ranks; 0 when empty.
  double Pct(double p) const {
    if (values.empty()) return 0;
    std::vector<double> s = values;
    std::sort(s.begin(), s.end());
    const double rank = p / 100.0 * static_cast<double>(s.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (rank - static_cast<double>(lo));
  }
  double P50() const { return Pct(50); }
  /// The highest percentile with ten samples beyond it, 100 * (1 - 10/n),
  /// kept within [50, 99.9]. It moves smoothly with the sample count, so
  /// runs of slightly different length report comparable tails.
  double TailPercentile() const {
    const double p = 100.0 * (1.0 - 10.0 / static_cast<double>(n()));
    return std::clamp(p, 50.0, 99.9);
  }
};

// ---------------------------------------------------------------------------
// Per-batch exact cost counts.

struct BatchCounts {
  uint64_t recompute_scan_rows = 0;
  uint64_t recomputed_groups = 0;
  uint64_t refresh_inserted = 0;
  uint64_t refresh_updated = 0;
  uint64_t refresh_deleted = 0;
  uint64_t delta_rows = 0;
  uint64_t mqo_subplans_materialized = 0;
  uint64_t epoch_views_rebuilt = 0;
  uint64_t epoch_views_shared = 0;

  bool operator==(const BatchCounts&) const = default;
};

/// The service counters a batch moves, read before and after it.
struct ServiceCounters {
  uint64_t mqo_materialized = 0;
  uint64_t views_rebuilt = 0;
  uint64_t views_shared = 0;

  static ServiceCounters Read(sdelta::obs::MetricsRegistry& m) {
    return {m.counter("mqo.subplans_materialized"),
            m.counter("service.epoch_views_rebuilt"),
            m.counter("service.epoch_views_shared")};
  }
};

BatchCounts CountsOf(const sdelta::warehouse::BatchReport& report,
                     const ServiceCounters& before,
                     const ServiceCounters& after) {
  const sdelta::core::RefreshStats r = report.TotalRefresh();
  BatchCounts c;
  c.recompute_scan_rows = r.recompute_scan_rows;
  c.recomputed_groups = r.recomputed_groups;
  c.refresh_inserted = r.inserted;
  c.refresh_updated = r.updated;
  c.refresh_deleted = r.deleted;
  c.delta_rows = report.propagate.delta_groups;
  c.mqo_subplans_materialized = after.mqo_materialized - before.mqo_materialized;
  c.epoch_views_rebuilt = after.views_rebuilt - before.views_rebuilt;
  c.epoch_views_shared = after.views_shared - before.views_shared;
  return c;
}

// ---------------------------------------------------------------------------
// One phase: a fresh service driven for a fixed time.

struct PhaseResult {
  // End to end.
  Samples c2v_ms;
  Samples append_ms;
  Samples query_ms;
  uint64_t queries = 0;
  // reader_qps = queries / reader_seconds: the one reader's summed query
  // time in the batch loops, the timed wall time in serve_mixed.
  double reader_seconds = 0;
  uint64_t visible_rows = 0;
  double timed_seconds = 0;
  // Per layer.
  Samples refresh_ms, propagate_ms, apply_base_ms, unattributed_ms;
  Samples answer_ms, pin_us, lag_ms;
  std::vector<BatchCounts> batches;
  double refresh_window_us_mean = 0;
  double wal_bytes_per_row = 0;
  double changesets_per_batch = 0;
  // Health.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  double peak_rss_mb = 0;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }

  /// Folds another thread's operation counts and errors into this one.
  void MergeHealth(const PhaseResult& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& e : o.errors) {
      if (errors.size() < 20) errors.push_back(e);
    }
  }

  /// Records one batch's timers and counts; `c2v` is the commit-to-visible
  /// time of the batch's newest change.
  void AddBatch(const sdelta::warehouse::BatchReport& report, double c2v,
                BatchCounts counts) {
    const double propagate = report.propagate_seconds * 1e3;
    const double apply = report.apply_base_seconds * 1e3;
    const double refresh = report.refresh_seconds * 1e3;
    propagate_ms.Add(propagate);
    apply_base_ms.Add(apply);
    refresh_ms.Add(refresh);
    unattributed_ms.Add(c2v - propagate - apply - refresh);
    batches.push_back(counts);
  }
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Workload {
  std::string name;
  bool open_loop = false;
  ChangeClass cls = ChangeClass::kUpdate;
  size_t rows = 0;
  /// Warehouse::Options::num_threads; 0 keeps the service default.
  size_t num_threads = 0;
};

struct OpenedService {
  std::unique_ptr<WarehouseService> service;
  double setup_seconds = 0;
};

/// Opens the service on a fresh directory and times Open alone (the
/// bootstrap catalog is generated before the clock starts).
OpenedService OpenFresh(const fs::path& dir, const Workload& w,
                        sdelta::obs::Tracer* tracer) {
  fs::remove_all(dir);
  WarehouseService::Options options;
  options.auto_batching = w.open_loop;
  options.tracer = tracer;
  if (w.num_threads > 0) options.warehouse.num_threads = w.num_threads;
  sdelta::rel::Catalog bootstrap =
      sdelta::warehouse::MakeRetailCatalog(PaperConfig());
  const auto t0 = Clock::now();
  OpenedService opened;
  opened.service = WarehouseService::Open(
      dir.string(), std::move(bootstrap),
      sdelta::warehouse::RetailSummaryTables(), options);
  opened.setup_seconds = Ms(Clock::now() - t0) / 1000.0;
  return opened;
}

/// Checks one query answer against the oracle's digests for the
/// sequence numbers the answered snapshot may reflect.
bool DigestInWindow(const std::vector<uint64_t>& digests, uint64_t got,
                    uint64_t lo, uint64_t hi) {
  hi = std::min<uint64_t>(hi, digests.size() - 1);
  for (uint64_t s = lo; s <= hi; ++s) {
    if (digests[s] == got) return true;
  }
  return false;
}

/// Runs one query on a freshly pinned snapshot and verifies the answer.
/// `digests[s]` is the expected digest after sequence s.
void TimedQuery(WarehouseService& svc, const ReaderQuery& q,
                const std::vector<uint64_t>& digests,
                const std::atomic<uint64_t>& visible_seq,
                const std::atomic<uint64_t>& sending_seq, bool record,
                sdelta::obs::Tracer* tracer, PhaseResult& out) {
  ++out.attempted;
  sdelta::obs::TraceSpan span(tracer, "bench.query");
  span.Attr("query", q.name);
  const uint64_t lo = visible_seq.load();
  const auto t0 = Clock::now();
  try {
    const sdelta::service::ReadSnapshot snap = svc.Snapshot();
    const auto t1 = Clock::now();
    const sdelta::lattice::AnswerResult answer = snap.Query(q.def);
    const auto t2 = Clock::now();
    if (record) {
      out.pin_us.Add(Ms(t1 - t0) * 1000.0);
      out.answer_ms.Add(Ms(t2 - t1));
      out.query_ms.Add(Ms(t2 - t0));
      out.reader_seconds += Ms(t2 - t0) / 1000.0;
      ++out.queries;
    }
    const uint64_t hi = sending_seq.load();
    if (!DigestInWindow(digests, QueryOracle::DigestOfAnswer(answer.rows, q),
                        lo, hi)) {
      out.Fail("query " + q.name + " from " + answer.source_view +
               " matches no state between seq " + std::to_string(lo) +
               " and " + std::to_string(hi));
    }
  } catch (const std::exception& e) {
    out.Fail("query " + q.name + " threw: " + e.what());
  }
}

/// Final check: every view of the last snapshot equals recomputation over
/// the mirror, and every reader query answers what recomputation gives.
void CheckFinalState(WarehouseService& svc, ChangeGenerator& gen,
                     PhaseResult& out) {
  const sdelta::service::ReadSnapshot snap = svc.Snapshot();
  for (const std::string& name : snap.ViewNames()) {
    ++out.attempted;
    const sdelta::core::SummaryTable& view = snap.view(name);
    const sdelta::rel::Table want = sdelta::core::CanonicalizeRows(
        sdelta::core::EvaluateView(gen.mirror(), view.def().physical));
    const sdelta::rel::Table got =
        sdelta::core::CanonicalizeRows(view.ToTable());
    bool same = want.NumRows() == got.NumRows();
    for (size_t r = 0; same && r < want.NumRows(); ++r) {
      same = want.RowAt(r) == got.RowAt(r);
    }
    if (!same) {
      out.Fail("view " + name + " differs from recomputation (" +
               std::to_string(got.NumRows()) + " rows, want " +
               std::to_string(want.NumRows()) + ")");
    }
  }
  const QueryOracle& oracle = gen.oracle();
  for (size_t q = 0; q < oracle.queries().size(); ++q) {
    ++out.attempted;
    const ReaderQuery& query = oracle.queries()[q];
    const uint64_t recomputed = QueryOracle::DigestOfAnswer(
        sdelta::core::EvaluateView(gen.mirror(), query.def), query);
    if (recomputed != oracle.Digest(q)) {
      out.Fail("oracle for " + query.name + " disagrees with recomputation");
    }
    try {
      const uint64_t answered =
          QueryOracle::DigestOfAnswer(snap.Query(query.def).rows, query);
      if (answered != recomputed) {
        out.Fail("final answer of " + query.name +
                 " differs from recomputation");
      }
    } catch (const std::exception& e) {
      out.Fail("final query " + query.name + " threw: " + e.what());
    }
  }
}

/// Reads the service-wide per-layer numbers after a phase.
void ReadServiceTotals(WarehouseService& svc, PhaseResult& out) {
  sdelta::obs::MetricsRegistry& m = svc.metrics();
  // The mean, not a percentile: the histogram's percentiles are
  // interpolated within power-of-two buckets.
  out.refresh_window_us_mean = m.histogram("service.refresh_window").Mean() * 1e6;
  const double rows = static_cast<double>(m.counter("service.append_rows"));
  out.wal_bytes_per_row =
      Div(static_cast<double>(m.counter("service.wal_bytes")), rows);
  const double batches = static_cast<double>(m.counter("service.batches"));
  out.changesets_per_batch = Div(
      static_cast<double>(m.counter("service.coalesced_changesets")), batches);
}

// ---------------------------------------------------------------------------
// Closed loop: Append one change set, Flush, then read the new epoch.

void RunBatchPhase(WarehouseService& svc, ChangeGenerator& gen,
                   const Workload& w, double seconds,
                   sdelta::obs::Tracer* tracer, PhaseResult& out) {
  const std::vector<ReaderQuery>& queries = gen.oracle().queries();
  // digests[q][s]: the expected answer digest of query q after seq s.
  std::vector<std::vector<uint64_t>> digests(queries.size());
  const auto record_digests = [&] {
    for (size_t q = 0; q < queries.size(); ++q) {
      digests[q].push_back(gen.oracle().Digest(q));
    }
  };
  record_digests();

  // Timed steps start after the warm-up and stop at the first step that
  // would begin past the deadline.
  Clock::time_point deadline{};
  // The closed loop's generator lag: from Flush returning to the next
  // Append (the step's probe query plus change generation).
  Clock::time_point flushed{};
  for (size_t step = 0;; ++step) {
    const bool timed = step >= kWarmupSteps;
    if (step == kWarmupSteps) {
      deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
    }
    if (timed && Clock::now() >= deadline) break;
    sdelta::core::ChangeSet changes = gen.Next(w.cls, w.rows);
    const size_t rows = changes.fact.size();
    record_digests();
    const uint64_t want_seq = digests[0].size() - 1;
    const ServiceCounters before = ServiceCounters::Read(svc.metrics());

    ++out.attempted;
    sdelta::obs::TraceSpan step_span(tracer, "bench.step");
    const auto t0 = Clock::now();
    uint64_t got_seq = 0;
    try {
      sdelta::obs::TraceSpan span(tracer, "bench.append");
      got_seq = svc.Append(std::move(changes));
    } catch (const std::exception& e) {
      out.Fail(std::string("append threw: ") + e.what());
      break;
    }
    const auto t1 = Clock::now();
    {
      sdelta::obs::TraceSpan span(tracer, "bench.flush");
      svc.Flush();
    }
    const auto t2 = Clock::now();
    if (got_seq != want_seq) {
      out.Fail("append returned seq " + std::to_string(got_seq) + ", want " +
               std::to_string(want_seq));
    }
    const sdelta::warehouse::BatchReport report = svc.LastReport();
    const ServiceCounters after = ServiceCounters::Read(svc.metrics());
    if (timed) {
      out.lag_ms.Add(Ms(t0 - flushed));
      const double c2v = Ms(t2 - t1);
      out.append_ms.Add(Ms(t1 - t0));
      out.c2v_ms.Add(c2v);
      out.visible_rows += rows;
      out.timed_seconds += Ms(t2 - t0) / 1000.0;
      out.AddBatch(report, c2v, CountsOf(report, before, after));
    }
    flushed = t2;
    // One probe query per step on the new epoch; after Flush the pinned
    // snapshot reflects exactly want_seq. A single query kind keeps the
    // latency distribution unimodal, so its p50 and tail are steady.
    const std::atomic<uint64_t> visible{want_seq};
    TimedQuery(svc, queries[kProbeQuery], digests[kProbeQuery], visible,
               visible, timed, tracer, out);
  }
}

// ---------------------------------------------------------------------------
// Open loop: a producer on a fixed schedule, readers, and an observer
// that polls GetStats() for the applied sequence.

void RunMixedPhase(WarehouseService& svc, ChangeGenerator& gen,
                   double seconds, sdelta::obs::Tracer* tracer,
                   PhaseResult& out) {
  const std::vector<ReaderQuery>& queries = gen.oracle().queries();
  // Every change set is generated before the clock starts, with the
  // expected reader answers after each sequence number. The first
  // kMixedWarmupSeconds of the schedule run with readers but are not
  // recorded, so the heap and the epoch pipeline reach steady state.
  const size_t warm = static_cast<size_t>(kMixedRate * kMixedWarmupSeconds);
  const size_t total =
      warm + std::max<size_t>(
                 1, static_cast<size_t>(std::llround(kMixedRate * seconds)));
  std::vector<sdelta::core::ChangeSet> changes;
  std::vector<size_t> rows;
  std::vector<std::vector<uint64_t>> digests(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    digests[q].push_back(gen.oracle().Digest(q));
  }
  for (size_t k = 0; k < total; ++k) {
    changes.push_back(gen.Next(
        k % 2 == 0 ? ChangeClass::kUpdate : ChangeClass::kInsertion,
        kMixedRows));
    rows.push_back(changes.back().fact.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      digests[q].push_back(gen.oracle().Digest(q));
    }
  }

  // due[s]: when seq s (1-based) is scheduled to be sent.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<Clock::time_point> due(total + 1, start);
  for (size_t s = 1; s <= total; ++s) {
    due[s] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(s - 1) / kMixedRate));
  }
  std::atomic<uint64_t> visible_seq{0};
  std::atomic<uint64_t> sending_seq{0};
  std::atomic<bool> recording{false};
  std::atomic<bool> stop_readers{false};
  std::atomic<bool> stop_observer{false};

  std::vector<PhaseResult> reader_out(kReaders);
  std::vector<std::thread> readers;
  std::thread observer;
  // Stops and joins the helper threads on every way out of this function
  // (a joinable std::thread being destroyed would end the program).
  const auto stop_threads = [&] {
    stop_readers.store(true);
    for (std::thread& t : readers) {
      if (t.joinable()) t.join();
    }
    stop_observer.store(true);
    if (observer.joinable()) observer.join();
  };
  const ScopeExit<decltype(stop_threads)> join_on_exit{stop_threads};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (size_t i = static_cast<size_t>(r); !stop_readers.load(); ++i) {
        const size_t q = i % queries.size();
        TimedQuery(svc, queries[q], digests[q], visible_seq, sending_seq,
                   recording.load(), tracer,
                   reader_out[static_cast<size_t>(r)]);
      }
    });
  }

  // The observer owns c2v_ms, visible_rows and the per-batch numbers.
  PhaseResult observed;
  const auto observe = [&] {
    ServiceCounters last = ServiceCounters::Read(svc.metrics());
    uint64_t batch_id = svc.GetStats().last_batch_id;
    uint64_t visible = 0;
    while (!stop_observer.load()) {
      const WarehouseService::Stats st = svc.GetStats();
      const Clock::time_point now = Clock::now();
      if (st.applied_seq > visible) {
        double newest_c2v = 0;
        for (uint64_t s = visible + 1; s <= st.applied_seq; ++s) {
          newest_c2v = Ms(now - due[s]);
          if (s > warm) {
            observed.c2v_ms.Add(newest_c2v);
            observed.visible_rows += rows[s - 1];
          }
        }
        const bool timed_batch = visible >= warm;
        visible = st.applied_seq;
        visible_seq.store(visible);
        if (st.last_batch_id != batch_id) {
          const sdelta::warehouse::BatchReport report = svc.LastReport();
          const ServiceCounters counters = ServiceCounters::Read(svc.metrics());
          if (timed_batch) {
            observed.AddBatch(report, newest_c2v,
                              CountsOf(report, last, counters));
          }
          last = counters;
          batch_id = st.last_batch_id;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  };
  observer = std::thread([&] {
    try {
      observe();
    } catch (const std::exception& e) {
      observed.Fail(std::string("observer threw: ") + e.what());
    }
  });

  for (uint64_t s = 1; s <= total; ++s) {
    std::this_thread::sleep_until(due[s]);
    const bool timed = s > warm;
    if (timed) recording.store(true);
    const auto t0 = Clock::now();
    sending_seq.store(s);
    ++out.attempted;
    try {
      sdelta::obs::TraceSpan span(tracer, "bench.append");
      const uint64_t got = svc.Append(std::move(changes[s - 1]));
      if (got != s) out.Fail("append returned seq " + std::to_string(got));
    } catch (const std::exception& e) {
      out.Fail(std::string("append threw: ") + e.what());
      break;
    }
    if (timed) {
      out.lag_ms.Add(Ms(t0 - due[s]));
      out.append_ms.Add(Ms(Clock::now() - t0));
    }
  }
  // Wait (bounded) for the last change to become visible.
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
  while (visible_seq.load() < total && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Clock::time_point end = Clock::now();
  stop_threads();
  if (visible_seq.load() < total) {
    out.Fail("changes not visible 60 s after the last append");
  }

  out.timed_seconds = Ms(end - due[warm + 1]) / 1000.0;
  out.c2v_ms = observed.c2v_ms;
  out.visible_rows = observed.visible_rows;
  out.propagate_ms = observed.propagate_ms;
  out.apply_base_ms = observed.apply_base_ms;
  out.refresh_ms = observed.refresh_ms;
  out.unattributed_ms = observed.unattributed_ms;
  out.batches = observed.batches;
  out.MergeHealth(observed);
  for (const PhaseResult& r : reader_out) {
    out.query_ms.Merge(r.query_ms);
    out.answer_ms.Merge(r.answer_ms);
    out.pin_us.Merge(r.pin_us);
    out.queries += r.queries;
    out.MergeHealth(r);
  }
  out.reader_seconds = out.timed_seconds;
}

// ---------------------------------------------------------------------------
// Entry point.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Runs one phase on a fresh service and mirror: drive, then check.
PhaseResult RunPhase(const Workload& w, const Args& args, double seconds,
                     bool traced, int setups, Samples* setup_s) {
  const fs::path out_dir = fs::absolute(".bench_out");
  // Runs in one checkout are sequential; OpenFresh clears what an
  // interrupted run left behind.
  const fs::path data_dir = out_dir / "data";
  std::unique_ptr<sdelta::obs::Tracer> tracer;
  if (traced) tracer = std::make_unique<sdelta::obs::Tracer>();

  ChangeGenerator gen(args.seed);
  OpenedService opened;
  for (int i = 0; i < setups; ++i) {
    opened.service.reset();
    opened = OpenFresh(data_dir, w, tracer.get());
    if (setup_s != nullptr) setup_s->Add(opened.setup_seconds);
  }
  WarehouseService& svc = *opened.service;

  PhaseResult out;
  if (w.open_loop) {
    RunMixedPhase(svc, gen, seconds, tracer.get(), out);
  } else {
    RunBatchPhase(svc, gen, w, seconds, tracer.get(), out);
  }
  svc.Flush();
  out.peak_rss_mb = PeakRssMb();
  ReadServiceTotals(svc, out);
  CheckFinalState(svc, gen, out);
  svc.Stop();
  if (tracer != nullptr) {
    const sdelta::obs::MetricsSnapshot metrics = svc.metrics().Snapshot();
    sdelta::obs::WriteChromeTrace(
        (out_dir / ("trace-" + w.name + "-seed" + std::to_string(args.seed) +
                    ".trace.json"))
            .string(),
        *tracer, &metrics);
  }
  opened.service.reset();
  fs::remove_all(data_dir);
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
  std::string note;
};

void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 uint64_t attempted, uint64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%-40s %14s %-6s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string SampleNote(const Samples& s) {
  return "(n=" + std::to_string(s.n()) + ")";
}

std::vector<Metric> EndToEndMetrics(const PhaseResult& r,
                                    const Samples& setup_s) {
  const double c2v_tail = r.c2v_ms.TailPercentile();
  const double q_tail = r.query_ms.TailPercentile();
  return {
      {"commit_to_visible_ms_p50", "ms", r.c2v_ms.P50(), SampleNote(r.c2v_ms)},
      {"commit_to_visible_ms_tail", "ms", r.c2v_ms.Pct(c2v_tail),
       "(p" + Num(c2v_tail) + ", n=" + std::to_string(r.c2v_ms.n()) + ")"},
      {"change_rows_per_s", "1/s",
       Div(static_cast<double>(r.visible_rows), r.timed_seconds),
       "(" + std::to_string(r.visible_rows) + " rows in " +
           Num(r.timed_seconds) + " s)"},
      {"append_ms_p50", "ms", r.append_ms.P50(), SampleNote(r.append_ms)},
      {"query_ms_p50", "ms", r.query_ms.P50(), SampleNote(r.query_ms)},
      {"query_ms_tail", "ms", r.query_ms.Pct(q_tail),
       "(p" + Num(q_tail) + ", n=" + std::to_string(r.query_ms.n()) + ")"},
      {"reader_qps", "1/s",
       Div(static_cast<double>(r.queries), r.reader_seconds),
       "(" + std::to_string(r.queries) + " queries)"},
      {"setup_s", "s", setup_s.P50(), SampleNote(setup_s)},
      {"peak_rss_mb", "MB", r.peak_rss_mb, "(ru_maxrss)"},
  };
}

double MeanOf(const std::vector<BatchCounts>& batches,
              uint64_t BatchCounts::*field) {
  double sum = 0;
  for (const BatchCounts& b : batches) sum += static_cast<double>(b.*field);
  return Div(sum, static_cast<double>(batches.size()));
}

std::vector<Metric> PerLayerMetrics(const Workload& w, const PhaseResult& u,
                                    const PhaseResult& t) {
  // Batch workloads: the first kProxyBatches timed batches, identical for
  // a fixed seed in both halves. serve_mixed: every observed batch (its
  // batch boundaries depend on timing, so its counts are not exact).
  std::vector<BatchCounts> proxies = t.batches;
  size_t drift = 0;
  std::string drift_note = "(batch boundaries depend on timing)";
  if (!w.open_loop) {
    proxies.resize(std::min({proxies.size(), u.batches.size(), kProxyBatches}));
    for (size_t i = 0; i < proxies.size(); ++i) {
      if (!(u.batches[i] == proxies[i])) ++drift;
    }
    drift_note = "(of the first " + std::to_string(proxies.size()) +
                 " batches, untraced vs traced half)";
  }
  const std::string per_batch =
      "(per batch, mean of " + std::to_string(proxies.size()) + ")";
  const auto mean = [&](uint64_t BatchCounts::*f) { return MeanOf(proxies, f); };
  const double overhead = Div(t.c2v_ms.P50(), u.c2v_ms.P50());
  return {
      {"core.refresh_ms", "ms", t.refresh_ms.P50(), SampleNote(t.refresh_ms)},
      {"core.recompute_scan_rows", "count",
       mean(&BatchCounts::recompute_scan_rows), per_batch},
      {"core.recomputed_groups", "count",
       mean(&BatchCounts::recomputed_groups), per_batch},
      {"core.refresh_inserted", "count", mean(&BatchCounts::refresh_inserted),
       per_batch},
      {"core.refresh_updated", "count", mean(&BatchCounts::refresh_updated),
       per_batch},
      {"core.refresh_deleted", "count", mean(&BatchCounts::refresh_deleted),
       per_batch},
      {"lattice.propagate_ms", "ms", t.propagate_ms.P50(),
       SampleNote(t.propagate_ms)},
      {"lattice.delta_rows", "count", mean(&BatchCounts::delta_rows),
       per_batch},
      {"lattice.mqo_subplans_materialized", "count",
       mean(&BatchCounts::mqo_subplans_materialized), per_batch},
      {"relational.apply_base_ms", "ms", t.apply_base_ms.P50(),
       SampleNote(t.apply_base_ms)},
      {"service.epoch_views_rebuilt", "count",
       mean(&BatchCounts::epoch_views_rebuilt), per_batch},
      {"service.epoch_views_shared", "count",
       mean(&BatchCounts::epoch_views_shared), per_batch},
      {"service.batch_unattributed_ms", "ms", t.unattributed_ms.P50(),
       SampleNote(t.unattributed_ms)},
      {"service.refresh_window_us", "us", t.refresh_window_us_mean,
       "(service.refresh_window mean)"},
      {"service.append_ms", "ms", t.append_ms.P50(), SampleNote(t.append_ms)},
      {"service.wal_bytes_per_row", "bytes", t.wal_bytes_per_row, ""},
      {"service.changesets_per_batch", "count", t.changesets_per_batch, ""},
      {"answer.query_ms", "ms", t.answer_ms.P50(), SampleNote(t.answer_ms)},
      {"service.snapshot_pin_us", "us", t.pin_us.P50(), SampleNote(t.pin_us)},
      {"trace.overhead_ratio", "ratio", overhead,
       "(traced " + Num(t.c2v_ms.P50()) + " ms / untraced " +
           Num(u.c2v_ms.P50()) + " ms)"},
      {"trace.proxy_drift_batches", "count", static_cast<double>(drift),
       drift_note},
      {"load.generator_lag_ms", "ms", t.lag_ms.P50(), SampleNote(t.lag_ms)},
  };
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper_update_10k|paper_insert_1k|serve_mixed> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  const std::vector<Workload> workloads = {
      {"paper_update_10k", false, ChangeClass::kUpdate, 10000},
      {"paper_insert_1k", false, ChangeClass::kInsertion, 1000},
      // Pinned to one execution context: the default pool (one per
      // hardware thread) beside two busy readers oversubscribes a 4-CPU
      // host and made the tails unsteady.
      {"serve_mixed", true, ChangeClass::kUpdate, kMixedRows, 1},
  };
  const auto it =
      std::find_if(workloads.begin(), workloads.end(),
                   [&](const Workload& w) { return w.name == args.workload; });
  if (it == workloads.end()) return Usage("unknown workload");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  const Workload& w = *it;

  std::vector<Metric> metrics;
  std::vector<const PhaseResult*> phases;
  PhaseResult untraced, traced;
  if (!args.trace) {
    Samples setup_s;
    untraced = RunPhase(w, args, args.seconds, false, kSetups, &setup_s);
    metrics = EndToEndMetrics(untraced, setup_s);
    phases = {&untraced};
  } else {
    untraced = RunPhase(w, args, args.seconds / 2, false, 1, nullptr);
    traced = RunPhase(w, args, args.seconds / 2, true, 1, nullptr);
    metrics = PerLayerMetrics(w, untraced, traced);
    phases = {&untraced, &traced};
  }
  uint64_t attempted = 0, failed = 0;
  for (const PhaseResult* p : phases) {
    attempted += p->attempted;
    failed += p->failed;
    for (const std::string& e : p->errors) {
      std::printf("ERROR: %s\n", e.c_str());
    }
  }
  const bool correct = failed == 0;
  std::printf("workload %s seed %llu seconds %s trace %d: error_rate %s "
              "(%llu failed of %llu attempted)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              Num(args.seconds).c_str(), args.trace ? 1 : 0,
              Num(static_cast<double>(failed) / static_cast<double>(attempted))
                  .c_str(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  PrintResult(metrics, correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
