// Cost of the all-or-nothing machinery (core/transaction.h): clone-and-swap
// on the happy path (one clone, moved in) and on the failure path (one clone,
// dropped), the durable catalog's whole select/drop cycle as the schema's
// history grows, and that an inactive fault point is free. The clone is a
// structure-only copy — method bodies are shared shared_ptrs — so its cost
// must stay a small fraction of the derivation it protects.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "common/failpoint.h"
#include "core/projection.h"
#include "core/transaction.h"
#include "storage/durable_catalog.h"
#include "storage/env.h"
#include "testing/fixtures.h"
#include "testing/random_schema.h"

namespace tyder::bench {
namespace {

namespace fs = std::filesystem;
using tyder::testing::BuildPersonEmployee;

Schema LargeRandomSchema() {
  testing::RandomSchemaOptions options;
  options.seed = 7;
  options.num_types = 40;
  options.num_general_methods = 30;
  auto schema = testing::GenerateRandomSchema(options);
  if (!schema.ok()) std::abort();
  return *std::move(schema);
}

// Baseline for the clone-and-swap benches: a bare schema copy.
void BM_SchemaCopy(benchmark::State& state) {
  Schema schema = LargeRandomSchema();
  for (auto _ : state) {
    Schema copy = schema;
    benchmark::DoNotOptimize(copy.types().NumTypes());
  }
}
BENCHMARK(BM_SchemaCopy);

// Success path: clone, then move the draft over the original (which frees
// the original's structure).
void BM_CloneAndSwapCommit(benchmark::State& state) {
  Schema schema = LargeRandomSchema();
  for (auto _ : state) {
    SchemaTransaction txn(schema);
    schema = txn.Commit();
  }
  benchmark::DoNotOptimize(schema.types().NumTypes());
}
BENCHMARK(BM_CloneAndSwapCommit);

// Failure path: clone, then drop the draft; the original is never written.
void BM_CloneAndSwapDrop(benchmark::State& state) {
  Schema schema = LargeRandomSchema();
  for (auto _ : state) {
    SchemaTransaction txn(schema);
    benchmark::DoNotOptimize(&txn.draft());
  }
  benchmark::DoNotOptimize(schema.types().NumTypes());
}
BENCHMARK(BM_CloneAndSwapDrop);

// The full failure path: derivation runs to the last phase boundary, fails,
// and drops its draft — versus the same derivation succeeding.
void BM_DerivationWithRollback(benchmark::State& state) {
  failpoint::Activate("verify.before");
  for (auto _ : state) {
    state.PauseTiming();
    auto fx = BuildPersonEmployee();
    if (!fx.ok()) {
      state.SkipWithError(fx.status().ToString().c_str());
      failpoint::DeactivateAll();
      return;
    }
    state.ResumeTiming();
    auto result = DeriveProjectionByName(
        fx->schema, "Employee", {"SSN", "date_of_birth", "pay_rate"}, "V");
    benchmark::DoNotOptimize(result.ok());
  }
  failpoint::DeactivateAll();
}
BENCHMARK(BM_DerivationWithRollback);

void BM_DerivationCommitted(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto fx = BuildPersonEmployee();
    if (!fx.ok()) {
      state.SkipWithError(fx.status().ToString().c_str());
      return;
    }
    state.ResumeTiming();
    auto result = DeriveProjectionByName(
        fx->schema, "Employee", {"SSN", "date_of_birth", "pay_rate"}, "V");
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_DerivationCommitted);

// The real disk with fsync made a no-op, so the durable rows time the
// catalog's work, not the disk's flush latency.
class NoSyncEnv : public storage::PosixEnv {
  class File : public storage::WritableFile {
   public:
    explicit File(std::unique_ptr<storage::WritableFile> inner)
        : inner_(std::move(inner)) {}

   protected:
    Status DoAppend(std::string_view data) override {
      return inner_->Append(data);
    }
    Status DoSync() override { return Status::OK(); }
    Status DoTruncate(uint64_t size) override { return inner_->Truncate(size); }
    Result<uint64_t> DoSize() override { return inner_->Size(); }

   private:
    std::unique_ptr<storage::WritableFile> inner_;
  };

  using Opened = Result<std::unique_ptr<storage::WritableFile>>;
  static Opened Wrap(Opened opened) {
    if (!opened.ok()) return opened.status();
    return std::unique_ptr<storage::WritableFile>(
        new File(std::move(opened).value()));
  }

 protected:
  Opened DoOpenAppendable(const std::string& path) override {
    return Wrap(PosixEnv::DoOpenAppendable(path));
  }
  Opened DoOpenTruncated(const std::string& path) override {
    return Wrap(PosixEnv::DoOpenTruncated(path));
  }
  Status DoSyncDir(const std::string&) override { return Status::OK(); }
};

// One durable selection define + drop, the commit-storm workload's cycle,
// after state.range(0) earlier cycles. Each dropped selection view stays
// behind as a tombstone type that every later whole-catalog copy carries.
void BM_DurableSelectDropCycle(benchmark::State& state) {
  const int history = static_cast<int>(state.range(0));
  std::string dir = (fs::temp_directory_path() /
                     ("tyder_bench_cycle_" + std::to_string(history)))
                        .string();
  fs::remove_all(dir);
  NoSyncEnv env;
  {
    auto db = storage::DurableCatalog::Open(dir, &env);
    if (!db.ok() || !db->Seed(Catalog(LargeRandomSchema())).ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    int cycle = 0;
    auto run_cycle = [&] {
      std::string name = "S" + std::to_string(cycle++);
      return db->DefineSelectionView(name, "T0").ok() &&
             db->DropView(name).ok();
    };
    for (int i = 0; i < history; ++i) {
      if (!run_cycle()) {
        state.SkipWithError("history construction failed");
        return;
      }
    }
    for (auto _ : state) {
      if (!run_cycle()) {
        state.SkipWithError("cycle failed");
        break;
      }
    }
    state.counters["types"] =
        static_cast<double>(db->catalog().schema().types().NumTypes());
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_DurableSelectDropCycle)->Arg(0)->Arg(3600)->Iterations(300);

// An inactive fault point must cost one relaxed atomic load — nothing.
Status HitInactiveFaultPoint() {
  TYDER_FAULT_POINT("verify.before");
  return Status::OK();
}

void BM_FaultPointInactive(benchmark::State& state) {
  failpoint::DeactivateAll();
  for (auto _ : state) {
    benchmark::DoNotOptimize(HitInactiveFaultPoint().ok());
  }
}
BENCHMARK(BM_FaultPointInactive);

}  // namespace
}  // namespace tyder::bench
