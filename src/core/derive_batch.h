// DeriveBatch: analyze many projections of one schema concurrently, then
// commit serially. The expensive half of a derivation — IsApplicable over the
// method set — only reads the schema, so a batch fans those analyses out to a
// worker pool over the shared, structurally frozen schema (the subtype
// closure, dispatch tables, and relevant-call cache are all safe for
// concurrent readers). Mutation stays single-threaded: the apply phase runs
// each passing projection through DeriveProjection, whose SchemaTransaction
// already serializes commit-or-rollback.

#ifndef TYDER_CORE_DERIVE_BATCH_H_
#define TYDER_CORE_DERIVE_BATCH_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/projection.h"
#include "methods/schema.h"

namespace tyder {

struct BatchDeriveOptions {
  // Worker threads for the analysis phase. Values < 1 are treated as 1;
  // jobs == 1 analyzes on the calling thread with no pool.
  int jobs = 1;
  // Commit each projection whose analysis succeeded (phase 2, serial, in
  // input order). When false the batch is analysis-only: the schema is left
  // untouched and each item reports its applicability partition.
  bool apply = true;
  // Forwarded to DeriveProjection when applying.
  bool verify = true;
};

struct BatchItemResult {
  ProjectionSpec spec;
  // First failure for this item (analysis or apply); other items are
  // unaffected — batch errors are isolated per projection.
  Status status;
  // Phase-1 output: the applicable / not-applicable method partition for the
  // projection, computed against the pre-batch schema.
  ApplicabilityResult applicability;
  // The derived type, when the projection was applied successfully.
  TypeId derived = kInvalidType;
  bool applied = false;
};

struct BatchDeriveReport {
  std::vector<BatchItemResult> items;  // one per spec, in input order
  int analyzed_ok = 0;
  int applied = 0;
  int failed = 0;
};

// Runs the batch. Never fails as a whole: per-item failures are recorded in
// the corresponding BatchItemResult and the schema keeps every successfully
// applied projection (each item commits independently).
BatchDeriveReport DeriveBatch(Schema& schema,
                              const std::vector<ProjectionSpec>& specs,
                              const BatchDeriveOptions& options = {});

}  // namespace tyder

#endif  // TYDER_CORE_DERIVE_BATCH_H_
