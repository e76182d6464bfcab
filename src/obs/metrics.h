#ifndef SDELTA_OBS_METRICS_H_
#define SDELTA_OBS_METRICS_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace sdelta::obs {

/// Accumulated distribution of observed values (timings, cardinalities).
/// Keeps summary statistics plus a fixed array of base-2 exponential
/// buckets, so percentile queries need no per-observation storage.
///
/// Bucket i covers (2^(i-33), 2^(i-32)] — i.e. bucket upper bounds run
/// from 2^-32 (~2.3e-10, below any timing we care about) to 2^31
/// (~2.1e9, above any cardinality we produce). Values at or below the
/// smallest bound (including zero and negatives) land in bucket 0;
/// values beyond the largest land in the final bucket. Percentiles
/// interpolate linearly within the answering bucket (by the rank's
/// position among that bucket's observations) and clamp to [min, max],
/// so they are exact whenever all observations in the answering bucket
/// share its upper bound (power-of-two cardinalities, single-valued
/// series) and avoid bucket-edge quantization otherwise — important for
/// the P50/P95/P99 samples feeding the time-series store.
struct Histogram {
  static constexpr int kNumBuckets = 64;
  /// upper bound of bucket i is 2^(i + kMinExp); kMinExp = -32.
  static constexpr int kMinExp = -32;

  uint64_t count = 0;
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::array<uint64_t, kNumBuckets> buckets{};

  /// Index of the bucket that covers `v`.
  static int BucketOf(double v) {
    if (!(v > 0)) return 0;  // zero, negatives, NaN
    int exp = 0;
    const double frac = std::frexp(v, &exp);  // v = frac * 2^exp, frac in [0.5, 1)
    // v in (2^(exp-1), 2^exp] unless v is an exact power of two
    // (frac == 0.5), which is the inclusive top of the bucket below.
    int bucket = exp - kMinExp - (frac == 0.5 ? 1 : 0);
    if (bucket < 0) bucket = 0;
    if (bucket >= kNumBuckets) bucket = kNumBuckets - 1;
    return bucket;
  }
  /// Upper bound of bucket i (inclusive).
  static double BucketUpperBound(int i) {
    return std::ldexp(1.0, i + kMinExp);
  }

  void Observe(double v) {
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
    ++buckets[static_cast<size_t>(BucketOf(v))];
  }
  double Mean() const { return count == 0 ? 0 : sum / static_cast<double>(count); }

  /// Value at percentile `p` in [0, 100]: locates the bucket containing
  /// the ceil(p/100 * count)-th smallest observation, interpolates
  /// linearly within it by the rank's position among the bucket's
  /// observations (bucket 0's lower edge is 0), and clamps to
  /// [min, max]. Returns 0 on an empty histogram.
  double Percentile(double p) const {
    if (count == 0) return 0;
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count)));
    if (rank < 1) rank = 1;
    if (rank > count) rank = count;
    uint64_t cumulative = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      const uint64_t in_bucket = buckets[static_cast<size_t>(i)];
      if (cumulative + in_bucket >= rank && in_bucket > 0) {
        const double upper = BucketUpperBound(i);
        const double lower = i == 0 ? 0.0 : BucketUpperBound(i - 1);
        const double position = static_cast<double>(rank - cumulative) /
                                static_cast<double>(in_bucket);
        double v = lower + (upper - lower) * position;
        if (v < min) v = min;
        if (v > max) v = max;
        return v;
      }
      cumulative += in_bucket;
    }
    return max;
  }
  double P50() const { return Percentile(50); }
  double P95() const { return Percentile(95); }
  double P99() const { return Percentile(99); }

  /// Folds another histogram into this one (summary stats and buckets).
  void MergeFrom(const Histogram& other) {
    count += other.count;
    sum += other.sum;
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
    for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
  }
};

/// A point-in-time deep copy of a MetricsRegistry's series, taken under
/// the registry mutex. Exporters iterate snapshots, never live registry
/// state, so exports are safe while pool workers are still recording.
struct MetricsSnapshot {
  template <typename V>
  using Series = std::map<std::string, V, std::less<>>;

  Series<uint64_t> counters;
  Series<double> gauges;
  Series<Histogram> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// A registry of named counters, gauges, and histograms.
///
/// Naming convention: dotted lower-case paths, subsystem first —
///   propagate.rows_scanned, propagate.delta_rows, refresh.updates,
///   refresh.minmax_recomputes, plan.edge_cost, exec.tasks, op.select.*
/// The same name must always be used with the same instrument kind.
///
/// The registry is passed around as a nullable pointer; every
/// instrumentation site guards with a single null check. Maps are
/// ordered so exports are deterministic.
///
/// Thread safety: all mutators and reads are serialized on an internal
/// mutex, so the maintenance thread, pool workers and snapshot readers
/// can share one registry. Bulk reads go through Snapshot(), a mutex-held deep copy —
/// there is no way to observe live series by reference.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Counter: monotonically increasing event count.
  void Add(std::string_view name, uint64_t delta = 1) {
    std::scoped_lock lock(mu_);
    Find(counters_, name) += delta;
  }

  /// Gauge: last-written value (e.g. the most recent batch's seconds).
  void Set(std::string_view name, double value) {
    std::scoped_lock lock(mu_);
    Find(gauges_, name) = value;
  }

  /// Histogram: accumulate a value distribution.
  void Observe(std::string_view name, double value) {
    std::scoped_lock lock(mu_);
    Find(histograms_, name).Observe(value);
  }

  /// Reads return the zero value for names never written.
  uint64_t counter(std::string_view name) const {
    std::scoped_lock lock(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  double gauge(std::string_view name) const {
    std::scoped_lock lock(mu_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0 : it->second;
  }
  Histogram histogram(std::string_view name) const {
    std::scoped_lock lock(mu_);
    auto it = histograms_.find(name);
    return it == histograms_.end() ? Histogram{} : it->second;
  }

  template <typename V>
  using Series = MetricsSnapshot::Series<V>;

  /// Deep copy of all series under the mutex. The only bulk-read path.
  MetricsSnapshot Snapshot() const {
    std::scoped_lock lock(mu_);
    return MetricsSnapshot{counters_, gauges_, histograms_};
  }

  bool empty() const {
    std::scoped_lock lock(mu_);
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  void Clear() {
    std::scoped_lock lock(mu_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
  }

  /// Folds a snapshot's series into this registry (counters add, gauges
  /// overwrite, histograms merge) — used to aggregate scratch
  /// registries and per-phase snapshots.
  void MergeFrom(const MetricsSnapshot& snapshot);
  /// Convenience overload: snapshots `other` first, so it is safe even
  /// while `other` is still being written to.
  void MergeFrom(const MetricsRegistry& other) { MergeFrom(other.Snapshot()); }

 private:
  template <typename V>
  static V& Find(Series<V>& series, std::string_view name) {
    auto it = series.find(name);
    if (it == series.end()) {
      it = series.emplace(std::string(name), V{}).first;
    }
    return it->second;
  }

  mutable std::mutex mu_;
  Series<uint64_t> counters_;
  Series<double> gauges_;
  Series<Histogram> histograms_;
};

}  // namespace sdelta::obs

#endif  // SDELTA_OBS_METRICS_H_
