// The churn-soak derivation history, replayed in process: the random schema
// and projection pool of the tyderd benchmark's churn-soak workload
// (perfbench/perfbench.cc), driven through a plain Catalog. Each block
// projects every pool request in a seeded shuffled order, drops each view
// it defined, then collapses empty surrogates. Dropped views and collapsed
// surrogates leave detached tombstone types, so the schema grows with every
// block (24 types at the start, ~55 after one block, ~223 after eight)
// while its live part stays the seed schema.

#ifndef TYDER_TESTS_TESTING_CHURN_H_
#define TYDER_TESTS_TESTING_CHURN_H_

#include <functional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/projection.h"
#include "workload/random_schema.h"

namespace tyder::testing {

// Seed 1, 24 types, two methods per generic function: churn-soak's schema.
workload::RandomSchemaOptions ChurnSoakSchemaOptions();

// One projection request by names, which stay valid across the history.
struct ChurnRequest {
  std::string source;
  std::vector<std::string> attributes;
};

// The 16 pool requests: PickRandomProjection(seed schema, 7919 + i).
std::vector<ChurnRequest> ChurnSoakPool(const Schema& seed_schema);

// Called once per request, before the catalog applies it: `before` is the
// catalog's schema, `after` the same request derived unverified on a copy.
// A request whose pipeline fails before the verifier is not visited.
using ChurnVisitor = std::function<void(
    const ChurnRequest& request, const Schema& before, const Schema& after)>;

// Runs `blocks` blocks on `catalog`, which must hold the seed schema the
// pool was drawn from. Requests the verifier refuses leave the catalog as it was, as in the
// benchmark. Returns the number of refused requests.
Result<int> RunChurnSoak(Catalog& catalog,
                         const std::vector<ChurnRequest>& pool, int blocks,
                         const ChurnVisitor& visit = nullptr);

}  // namespace tyder::testing

#endif  // TYDER_TESTS_TESTING_CHURN_H_
