// Overhead budget for the always-on observability layer.
//
// Two bench families live here:
//
//  1. Instrumented hot-path clones, compiled in BOTH observability modes.
//     `scripts/run_all.sh obs` builds this binary twice — TYDER_OBS=OFF and
//     ON — and feeds the two BENCHJSON reports through bench_compare.py
//     with a hard 5% threshold: always-on counters, timers and the flight
//     recorder together must not cost the engine's hot paths more than
//     that. The workloads clone the PR 3 cache/dispatch benches
//     (bench_subtype_cache.cc) plus the transaction rollback path, which
//     crosses TYDER_COUNT, TYDER_TIMED and a flight-recorder append.
//
//  2. Micro benches of the primitives themselves (per-thread-sharded
//     counter vs. the legacy single atomic, lock-free histogram record and
//     snapshot, flight-recorder append, stats snapshot line). These only
//     exist in ON builds, so the comparison sees them as NEW/REMOVED rows —
//     informational, never a gate failure.

#include <benchmark/benchmark.h>

#include <atomic>
#include <vector>

#include "core/projection.h"
#include "core/transaction.h"
#include "methods/precedence.h"
#include "obs/obs.h"
#include "obs/snapshotter.h"
#include "workloads.h"

namespace tyder::bench {
namespace {

// --- family 1: engine hot paths, built in ON and OFF modes ----------------

// Clone of bench_subtype_cache.cc DispatchSweep (cached): every generic
// function dispatched on every type of a depth-5 tree hierarchy.
void BM_ObsDispatchSweep(benchmark::State& state) {
  auto schema = BuildTreeSchema(5);
  if (!schema.ok()) {
    state.SkipWithError(schema.status().ToString().c_str());
    return;
  }
  size_t n = schema->types().NumTypes();
  for (auto _ : state) {
    for (GfId g = 0; g < schema->NumGenericFunctions(); ++g) {
      for (TypeId t = 0; t < n; ++t) {
        auto m = MostSpecificApplicable(*schema, g, {t});
        benchmark::DoNotOptimize(m.ok());
      }
    }
  }
  state.counters["types"] = static_cast<double>(n);
}
BENCHMARK(BM_ObsDispatchSweep);

// Clone of bench_subtype_cache.cc Derivation (cached): one full projection
// derivation over a copy of a depth-5 tree schema per iteration.
void BM_ObsDerivation(benchmark::State& state) {
  auto schema = BuildTreeSchema(5);
  if (!schema.ok()) {
    state.SkipWithError(schema.status().ToString().c_str());
    return;
  }
  auto source = schema->types().FindType("N0_0");
  std::vector<AttrId> attrs = schema->types().CumulativeAttributes(*source);
  for (auto _ : state) {
    Schema copy = *schema;
    ProjectionSpec spec;
    spec.source = *source;
    spec.attributes = attrs;
    spec.view_name = "ObsView";
    ProjectionOptions options;
    options.verify = false;
    auto result = DeriveProjection(copy, spec, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->derived);
  }
}
BENCHMARK(BM_ObsDerivation);

// Transaction clone + drop: the clone crosses TYDER_COUNT and TYDER_TIMED,
// the drop a counter, a flight-recorder append and a narration call.
void BM_ObsTransactionRollback(benchmark::State& state) {
  auto schema = BuildTreeSchema(4);
  if (!schema.ok()) {
    state.SkipWithError(schema.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    SchemaTransaction txn(*schema);  // no Commit: dtor drops the draft
    benchmark::DoNotOptimize(&txn);
  }
}
BENCHMARK(BM_ObsTransactionRollback);

#if TYDER_OBS_ENABLED

// --- family 2: primitive micro benches (ON builds only) -------------------

void BM_ObsCounterAdd(benchmark::State& state) {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("bench.obs_counter");
  for (auto _ : state) counter->Add(1);
}
BENCHMARK(BM_ObsCounterAdd);
BENCHMARK(BM_ObsCounterAdd)->Threads(4);

// The PR 1 design: every thread hammering one atomic — the cache-line
// bounce the sharded counter exists to avoid.
void BM_ObsLegacyAtomicCounter(benchmark::State& state) {
  static std::atomic<uint64_t> counter{0};
  for (auto _ : state) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }
}
BENCHMARK(BM_ObsLegacyAtomicCounter);
BENCHMARK(BM_ObsLegacyAtomicCounter)->Threads(4);

void BM_ObsHistogramRecord(benchmark::State& state) {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("bench.obs_histogram");
  int64_t value = 0;
  for (auto _ : state) {
    histogram->Record(value);
    value = (value + 4097) & 0xFFFFF;  // sweep buckets, stay branch-friendly
  }
}
BENCHMARK(BM_ObsHistogramRecord);
BENCHMARK(BM_ObsHistogramRecord)->Threads(4);

void BM_ObsHistogramSnap(benchmark::State& state) {
  obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("bench.obs_snap_histogram");
  for (int64_t i = 0; i < 10000; ++i) histogram->Record(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram->Snap());
  }
}
BENCHMARK(BM_ObsHistogramSnap);

void BM_ObsFlightRecord(benchmark::State& state) {
  int64_t i = 0;
  for (auto _ : state) {
    obs::FlightRecorder::Record(obs::FlightEventKind::kMark, "bench.flight",
                                i++);
  }
}
BENCHMARK(BM_ObsFlightRecord);
BENCHMARK(BM_ObsFlightRecord)->Threads(4);

void BM_ObsSnapshotLine(benchmark::State& state) {
  TYDER_COUNT("bench.obs_snapshot_line");  // ensure a non-empty registry
  uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::StatsSnapshotter::SnapshotLine(seq++));
  }
}
BENCHMARK(BM_ObsSnapshotLine);

#endif  // TYDER_OBS_ENABLED

}  // namespace
}  // namespace tyder::bench
