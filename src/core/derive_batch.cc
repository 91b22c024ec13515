#include "core/derive_batch.h"

#include <atomic>
#include <set>
#include <thread>
#include <utility>

#include "core/is_applicable.h"
#include "obs/obs.h"

namespace tyder {

namespace {

// Phase 1 worker body: items are claimed through a shared atomic counter
// (cheap work stealing — every worker pulls the next unclaimed index), so an
// expensive projection does not stall the rest of the batch behind a static
// partition.
void AnalyzeItems(const Schema& schema, const std::vector<ProjectionSpec>& specs,
                  std::atomic<size_t>& next, std::vector<BatchItemResult>& out) {
  for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
       i < specs.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
    BatchItemResult& item = out[i];
    std::set<AttrId> projection(item.spec.attributes.begin(),
                                item.spec.attributes.end());
    Result<ApplicabilityResult> applicability = ComputeApplicableMethods(
        schema, item.spec.source, projection, /*record_trace=*/false);
    if (applicability.ok()) {
      item.applicability = std::move(*applicability);
    } else {
      item.status = applicability.status().WithContext(
          "analysis of '" + item.spec.view_name + "'");
    }
  }
}

}  // namespace

BatchDeriveReport DeriveBatch(Schema& schema,
                              const std::vector<ProjectionSpec>& specs,
                              const BatchDeriveOptions& options) {
  TYDER_COUNT("batch.runs");
  obs::ScopedSpan span("DeriveBatch");

  BatchDeriveReport report;
  report.items.resize(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) report.items[i].spec = specs[i];

  int jobs = options.jobs < 1 ? 1 : options.jobs;
  if (static_cast<size_t>(jobs) > specs.size() && !specs.empty()) {
    jobs = static_cast<int>(specs.size());
  }

  // --- phase 1: concurrent read-only analysis ------------------------------
  // Build every lazily derived structure before the fan-out so workers only
  // ever read published state (they would still be safe without this — the
  // caches publish under their own locks — but a prewarmed closure keeps the
  // hot loops lock-free from the first query).
  schema.types().PrewarmClosure();
  {
    obs::ScopedSpan analysis("DeriveBatch.analyze");
    analysis.Attr("jobs", std::to_string(jobs));
    analysis.Attr("items", std::to_string(specs.size()));
    std::atomic<size_t> next{0};
    {
      // The calling thread is worker #0; jthreads join on scope exit.
      std::vector<std::jthread> pool;
      pool.reserve(jobs - 1);
      for (int w = 1; w < jobs; ++w) {
        pool.emplace_back([&] {
          AnalyzeItems(schema, specs, next, report.items);
        });
      }
      AnalyzeItems(schema, specs, next, report.items);
    }
  }

  // --- phase 2: serial apply ----------------------------------------------
  // Each projection commits (or rolls back) through its own
  // SchemaTransaction inside DeriveProjection. Applying mutates the schema,
  // which invalidates the shared caches; later items recompute against the
  // updated hierarchy, which is exactly the sequential left-to-right
  // semantics of repeated --project ops.
  ProjectionOptions projection_options;
  projection_options.record_trace = false;
  projection_options.verify = options.verify;
  for (BatchItemResult& item : report.items) {
    if (!item.status.ok()) {
      ++report.failed;
      TYDER_COUNT("batch.item_failures");
      continue;
    }
    ++report.analyzed_ok;
    if (!options.apply) continue;
    Result<DerivationResult> derived =
        DeriveProjection(schema, item.spec, projection_options);
    if (!derived.ok()) {
      item.status =
          derived.status().WithContext("apply of '" + item.spec.view_name + "'");
      ++report.failed;
      TYDER_COUNT("batch.item_failures");
      TYDER_RECORD_V(kOp, "batch.item_failure",
                     static_cast<int64_t>(report.failed));
      continue;
    }
    item.derived = derived->derived;
    item.applied = true;
    ++report.applied;
    TYDER_COUNT("batch.items_applied");
  }
  return report;
}

}  // namespace tyder
