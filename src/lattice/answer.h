#ifndef SDELTA_LATTICE_ANSWER_H_
#define SDELTA_LATTICE_ANSWER_H_

#include <string>
#include <vector>

#include "core/summary_table.h"
#include "exec/context.h"
#include "lattice/vlattice.h"

namespace sdelta::lattice {

/// Result of answering an aggregate query against the warehouse.
struct AnswerResult {
  rel::Table rows;          ///< the query's logical output columns
  std::string source_view;  ///< summary table used, or "" when from base
  bool from_base = false;   ///< true when no summary table could serve
  size_t rows_read = 0;     ///< input tuples scanned to produce the answer
};

/// Answers an aggregate query — expressed as a ViewDef (not materialized,
/// just describing SELECT/FROM/WHERE/GROUP BY) — using the cheapest
/// materialized summary table that *derives* it (paper §3.3: an edge
/// v1 -> v2 means v2 can be answered from v1 instead of base data).
///
/// The query is augmented like a view, matched against every summary
/// table with the §5.1 derives test, and rewritten onto the smallest
/// qualifying table (fewest rows, then fewest joins). If none qualifies
/// the query is evaluated from the base tables.
///
/// `summaries` must be parallel to `lattice.views` (the Warehouse facade
/// guarantees this layout).
///
/// With ctx sinks attached the query is traced (span answer.query) and
/// counted: answer.view_hits / answer.base_fallbacks, plus
/// answer.rows_read.
AnswerResult AnswerQuery(const rel::Catalog& catalog, const VLattice& lattice,
                         const std::vector<const core::SummaryTable*>&
                             summaries,
                         const core::ViewDef& query,
                         const exec::Context& ctx = {});

}  // namespace sdelta::lattice

#endif  // SDELTA_LATTICE_ANSWER_H_
