// Cost of the dispatch-preservation check (core/dispatch_preservation.h) as
// the schema's history grows. The argument is the number of churn-soak
// blocks replayed first (testing/churn.h): 1 block leaves 55 types, 8 leave
// 223, almost all of them detached tombstones. The measured derivation is
// pool request 2 on that history, one the verifier refuses with four
// changed calls, so the report expansion is timed too.

#include <benchmark/benchmark.h>

#include "catalog/catalog.h"
#include "core/dispatch_preservation.h"
#include "core/projection.h"
#include "testing/churn.h"

namespace tyder::bench {
namespace {

void BM_VerifyDispatch(benchmark::State& state) {
  auto seed = workload::GenerateRandomSchema(testing::ChurnSoakSchemaOptions());
  if (!seed.ok()) {
    state.SkipWithError("schema generation failed");
    return;
  }
  std::vector<testing::ChurnRequest> pool = testing::ChurnSoakPool(*seed);
  Catalog catalog(*seed);
  if (!testing::RunChurnSoak(catalog, pool, static_cast<int>(state.range(0)))
           .ok()) {
    state.SkipWithError("churn history failed");
    return;
  }
  const Schema& before = catalog.schema();
  Schema after = before;
  ProjectionOptions unverified;
  unverified.verify = false;
  if (!DeriveProjectionByName(after, pool[2].source, pool[2].attributes,
                              "Measured", unverified)
           .ok()) {
    state.SkipWithError("derivation failed");
    return;
  }
  for (auto _ : state) {
    std::vector<std::string> issues;
    CheckDispatchPreserved(before, after, &issues);
    benchmark::DoNotOptimize(issues.data());
  }
  state.counters["types"] = static_cast<double>(before.types().NumTypes());
}
BENCHMARK(BM_VerifyDispatch)->Arg(1)->Arg(8)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tyder::bench
