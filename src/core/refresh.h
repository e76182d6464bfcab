#ifndef SDELTA_CORE_REFRESH_H_
#define SDELTA_CORE_REFRESH_H_

#include "core/summary_table.h"
#include "exec/context.h"
#include "obs/metrics.h"
#include "relational/catalog.h"
#include "relational/table.h"

namespace sdelta::core {

struct RefreshOptions {
  /// Figure 7 recomputes a group whenever the delta MIN/MAX ties or
  /// beats the stored one — even for pure insertions, because the delta
  /// cannot tell insertions from deletions. Our summary-deltas carry a
  /// per-group deletion marker (core::kTaintedColumn), and §3.1 says
  /// MIN/MAX *are* self-maintainable under insertions; so when a
  /// group's delta is untainted the new extremum is combined in place
  /// with no base scan. Set false for the paper-faithful conservative
  /// behaviour (deltas without the marker are always treated as
  /// potentially containing deletions).
  bool trust_untainted_minmax = true;
};

struct RefreshStats {
  size_t inserted = 0;           ///< new groups added to the summary table
  size_t deleted = 0;            ///< groups removed (COUNT(*) reached 0)
  size_t updated = 0;            ///< groups updated in place
  size_t recomputed_groups = 0;  ///< groups recomputed from base data
  size_t recompute_scan_rows = 0;  ///< base rows scanned for recomputes
  /// Base rows that passed the recompute filter, the join and WHERE and
  /// reached the accumulators — the rows of the recomputed groups. At
  /// most recompute_scan_rows.
  size_t recompute_rows_aggregated = 0;
  /// Groups whose recompute was forced by the §3.1 MIN/MAX
  /// non-self-maintainability path — a deletion tied or beat a stored
  /// extremum (Figure 7's recompute test). A strict subset of
  /// recomputed_groups: recomputes of freshly appearing tainted groups
  /// (dimension moves) are excluded.
  size_t minmax_recomputes = 0;
  /// Key-index operations during this refresh (summary-table probes,
  /// inserts, erases, and recompute dimension probes), split by whether
  /// the key took the packed fast path. Deterministic across thread
  /// counts: each view's refresh is sequential over a byte-identical
  /// delta. Feeds the shared key.packed_rows / key.fallback_rows
  /// counters behind the key.packed_ratio gauge.
  uint64_t key_packed_ops = 0;
  uint64_t key_fallback_ops = 0;

  RefreshStats& operator+=(const RefreshStats& o) {
    inserted += o.inserted;
    deleted += o.deleted;
    updated += o.updated;
    recomputed_groups += o.recomputed_groups;
    recompute_scan_rows += o.recompute_scan_rows;
    recompute_rows_aggregated += o.recompute_rows_aggregated;
    minmax_recomputes += o.minmax_recomputes;
    key_packed_ops += o.key_packed_ops;
    key_fallback_ops += o.key_fallback_ops;
    return *this;
  }

  /// Folds this run's counters into a registry (refresh.inserts,
  /// refresh.deletes, refresh.updates, refresh.recomputed_groups,
  /// refresh.recompute_scan_rows, refresh.recompute_rows_aggregated,
  /// refresh.minmax_recomputes, plus the
  /// pipeline-wide key.packed_rows / key.fallback_rows).
  void EmitTo(obs::MetricsRegistry& metrics) const;
};

/// Applies the summary-delta to the summary table (paper Figure 7).
///
/// Each summary-delta tuple affects exactly one summary tuple:
///  * no corresponding tuple       -> insert;
///  * COUNT(*) would reach zero    -> delete;
///  * a deleted value ties/beats a group's MIN/MAX (and values remain)
///                                 -> recompute that group from base data;
///  * otherwise                    -> in-place update, with per-expression
///    COUNT(e) deciding when SUM/MIN/MAX become NULL.
///
/// Groups that need recomputation are collected and recomputed together
/// after the cursor loop: one typed scan of the fact table selects the
/// rows of those groups, and only those rows are joined and aggregated.
///
/// PRECONDITION: the catalog's base tables must already reflect the
/// changes the summary-delta was computed from (the paper's assumption
/// for MIN/MAX recomputation). Throws std::runtime_error on deltas that
/// are inconsistent with the summary table (e.g. a deletion for a group
/// that does not exist).
///
/// The refresh.view span parents on the calling thread's innermost open
/// span. The cursor loop is sequential; `ctx.pool`, when set, runs the
/// recompute's fact-table filter in morsels (results are identical at
/// every thread count).
RefreshStats Refresh(const rel::Catalog& catalog, SummaryTable& view,
                     const rel::Table& summary_delta,
                     const RefreshOptions& options = {},
                     const exec::Context& ctx = {});

}  // namespace sdelta::core

#endif  // SDELTA_CORE_REFRESH_H_
