#ifndef SDELTA_CORE_MAINTENANCE_H_
#define SDELTA_CORE_MAINTENANCE_H_

#include <chrono>
#include <string>

#include "core/delta.h"
#include "core/propagate.h"
#include "core/refresh.h"
#include "core/summary_table.h"

namespace sdelta::core {

/// A monotonic stopwatch used by the maintenance pipeline and benches.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  void Reset() { start_ = Clock::now(); }
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Timing and counter report for maintaining one summary table through
/// one batch window.
struct MaintenanceReport {
  std::string view;
  double propagate_seconds = 0;  ///< outside the batch window
  double refresh_seconds = 0;    ///< inside the batch window
  PropagateStats propagate;
  RefreshStats refresh;

  double total_seconds() const { return propagate_seconds + refresh_seconds; }
};

/// Maintains a single summary table for one change set, end to end:
/// propagate (before base update), apply changes to base, refresh.
///
/// This is the single-view convenience path; multi-view maintenance with
/// shared propagation goes through the lattice layer / warehouse facade.
/// `catalog` is mutated (the change set is applied to the base tables).
MaintenanceReport MaintainView(rel::Catalog& catalog, SummaryTable& view,
                               const ChangeSet& changes,
                               const RefreshOptions& ropts = {},
                               const exec::Context& ctx = {});

}  // namespace sdelta::core

#endif  // SDELTA_CORE_MAINTENANCE_H_
