// The class sweep of CheckDispatchPreserved against the exhaustive oracle
// (oracle::RefDispatchChanges): the same issue lines in the same order on
// random schemas, on the churn-soak history with its tombstones (refused
// derivations included), and on a hand-built arity-3 change. A known-bad
// build that keys classes on the before-CPL alone must be caught.

#include "core/dispatch_preservation.h"

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/failpoint.h"
#include "core/projection.h"
#include "mir/builder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "oracle/reference.h"
#include "testing/churn.h"
#include "testing/random_schema.h"

namespace tyder {
namespace {

struct DerivationPair {
  std::string label;
  Schema before;
  Schema after;
};

// Projections drawn from random schemas with one to three methods per
// generic function, each derived unverified so refused ones are kept.
const std::vector<DerivationPair>& RandomPairs() {
  static const std::vector<DerivationPair> pairs = [] {
    std::vector<DerivationPair> out;
    for (int methods_per_gf = 1; methods_per_gf <= 3; ++methods_per_gf) {
      for (uint32_t seed = 1; seed <= 6; ++seed) {
        testing::RandomSchemaOptions options;
        options.seed = seed;
        options.num_types = 14;
        options.methods_per_gf = methods_per_gf;
        Result<Schema> schema = testing::GenerateRandomSchema(options);
        if (!schema.ok()) continue;
        for (uint32_t k = 0; k < 3; ++k) {
          ProjectionSpec spec;
          if (!testing::PickRandomProjection(*schema, seed * 31 + k,
                                             &spec.source, &spec.attributes)) {
            continue;
          }
          spec.view_name = "V" + std::to_string(k);
          Schema after = *schema;
          ProjectionOptions unverified;
          unverified.verify = false;
          if (!DeriveProjection(after, spec, unverified).ok()) continue;
          out.push_back({"methods_per_gf " + std::to_string(methods_per_gf) +
                             " seed " + std::to_string(seed) + " request " +
                             std::to_string(k),
                         *schema, std::move(after)});
        }
      }
    }
    return out;
  }();
  return pairs;
}

// Every request of two churn-soak blocks (24 to ~80 types, tombstones
// included), accepted or refused by the verifier.
const std::vector<DerivationPair>& ChurnPairs() {
  static const std::vector<DerivationPair> pairs = [] {
    std::vector<DerivationPair> out;
    Result<Schema> seed =
        testing::GenerateRandomSchema(testing::ChurnSoakSchemaOptions());
    if (!seed.ok()) return out;
    std::vector<testing::ChurnRequest> pool = testing::ChurnSoakPool(*seed);
    Catalog catalog(*seed);
    Result<int> refused = testing::RunChurnSoak(
        catalog, pool, /*blocks=*/2,
        [&](const testing::ChurnRequest& request, const Schema& before,
            const Schema& after) {
          out.push_back({"churn request " + std::to_string(out.size()) +
                             " on " + request.source,
                         before, after});
        });
    if (!refused.ok()) out.clear();
    return out;
  }();
  return pairs;
}

struct Comparison {
  std::vector<std::string> disagreements;  // labels of the pairs
  size_t changed = 0;  // pairs on which the oracle reports a change
};

// The class sweep against the oracle on every pair.
Comparison Compare(const std::vector<DerivationPair>& pairs) {
  Comparison out;
  for (const DerivationPair& pair : pairs) {
    std::vector<std::string> issues;
    CheckDispatchPreserved(pair.before, pair.after, &issues);
    std::vector<std::string> expected =
        oracle::RefDispatchChanges(pair.before, pair.after);
    if (issues != expected) out.disagreements.push_back(pair.label);
    if (!expected.empty()) ++out.changed;
  }
  return out;
}

class DispatchPreservationTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DeactivateAll(); }
};

TEST_F(DispatchPreservationTest, MatchesOracleOnRandomSchemas) {
  const std::vector<DerivationPair>& pairs = RandomPairs();
  ASSERT_GE(pairs.size(), 30u);
  Comparison c = Compare(pairs);
  EXPECT_GT(c.changed, 0u) << "no derivation changed dispatch";
  EXPECT_EQ(c.disagreements, std::vector<std::string>{});
}

TEST_F(DispatchPreservationTest, MatchesOracleOnChurnedHistory) {
  const std::vector<DerivationPair>& pairs = ChurnPairs();
  ASSERT_EQ(pairs.size(), 32u);
  EXPECT_GT(pairs.back().before.types().NumTypes(), 50u);
  Comparison c = Compare(pairs);
  // Seven of the sixteen pool requests change dispatch in every block.
  EXPECT_EQ(c.changed, 14u);
  EXPECT_EQ(c.disagreements, std::vector<std::string>{});
}

// With classes keyed on the before-CPL alone, a class can merge a type
// whose dispatch changes with one whose dispatch does not; the differential
// must notice (it does on three requests on methods_per_gf 2, seed 4).
TEST_F(DispatchPreservationTest, KnownBadBuildIsCaught) {
  failpoint::Activate("chaos.verify_before_key_only", -1);
  EXPECT_FALSE(Compare(RandomPairs()).disagreements.empty())
      << "classes keyed on the before-CPL alone went unnoticed";
  failpoint::DeactivateAll();
  EXPECT_EQ(Compare(RandomPairs()).disagreements, std::vector<std::string>{});
}

TEST_F(DispatchPreservationTest, ReportsOffDiagonalArityThreeChange) {
  Result<Schema> created = Schema::Create();
  ASSERT_TRUE(created.ok()) << created.status();
  Schema before = std::move(created).value();
  Result<TypeId> a = before.types().DeclareType("A", TypeKind::kUser);
  Result<TypeId> b = before.types().DeclareType("B", TypeKind::kUser);
  ASSERT_TRUE(a.ok() && b.ok());
  Result<GfId> gf = before.DeclareGenericFunction("m3", 3);
  ASSERT_TRUE(gf.ok()) << gf.status();
  Method m;
  m.label = Symbol::Intern("m3_impl");
  m.gf = *gf;
  m.sig.params = {*a, *b, *a};
  m.sig.result = before.builtins().void_type;
  m.param_names = {Symbol::Intern("x"), Symbol::Intern("y"),
                   Symbol::Intern("z")};
  m.body = mir::Seq({});
  Result<MethodId> method = before.AddMethod(std::move(m));
  ASSERT_TRUE(method.ok()) << method.status();

  Schema after = before;
  Signature moved = after.method(*method).sig;
  moved.params[2] = *b;
  after.SetMethodSignature(*method, moved);

  // No call with three equal argument types changes: a diagonal-only sweep
  // would pass this pair.
  for (TypeId t = 0; t < before.types().NumTypes(); ++t) {
    std::vector<TypeId> diagonal(3, t);
    EXPECT_EQ(oracle::RefDispatch(before, *gf, diagonal).ok(),
              oracle::RefDispatch(after, *gf, diagonal).ok());
  }
  std::vector<std::string> issues;
  CheckDispatchPreserved(before, after, &issues);
  std::vector<std::string> expected = {"dispatch of m3(A, B, A) changed",
                                       "dispatch of m3(A, B, B) changed"};
  EXPECT_EQ(issues, expected);
  EXPECT_EQ(oracle::RefDispatchChanges(before, after), expected);
}

// churn-soak's refused requests are genuine: pool request 2 (source T14)
// re-homes methods so that four existing multi-method calls dispatch
// elsewhere, and the exhaustive reference oracle counts the same four.
TEST_F(DispatchPreservationTest, ChurnSoakRefusalIsAGenuineDispatchChange) {
  Result<Schema> seed =
      testing::GenerateRandomSchema(testing::ChurnSoakSchemaOptions());
  ASSERT_TRUE(seed.ok()) << seed.status();
  std::vector<testing::ChurnRequest> pool = testing::ChurnSoakPool(*seed);
  ASSERT_EQ(pool.size(), 16u);
  const testing::ChurnRequest& request = pool[2];
  EXPECT_EQ(request.source, "T14");

  Schema after = *seed;
  ProjectionOptions unverified;
  unverified.verify = false;
  ASSERT_TRUE(DeriveProjectionByName(after, request.source,
                                     request.attributes, "P", unverified)
                  .ok());
  std::vector<std::string> issues;
  CheckDispatchPreserved(*seed, after, &issues);
  EXPECT_EQ(issues.size(), 4u);
  EXPECT_EQ(issues, oracle::RefDispatchChanges(*seed, after));

  Catalog catalog(*seed);
  Result<const ViewDef*> view = catalog.DefineProjectionView(
      "P", request.source, request.attributes);
  ASSERT_FALSE(view.ok());
  for (const std::string& issue : issues) {
    EXPECT_NE(view.status().ToString().find(issue), std::string::npos)
        << issue;
  }
}

#if TYDER_OBS_ENABLED
// The probes per derivation depend on the live schema, not on its history:
// the last of eight churn-soak blocks (~223 types, mostly tombstones) probes
// exactly as much as the first (24 to 55 types).
TEST_F(DispatchPreservationTest, ProbesStayFlatAcrossChurnHistory) {
  Result<Schema> seed =
      testing::GenerateRandomSchema(testing::ChurnSoakSchemaOptions());
  ASSERT_TRUE(seed.ok()) << seed.status();
  std::vector<testing::ChurnRequest> pool = testing::ChurnSoakPool(*seed);
  Catalog catalog(*seed);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  std::vector<uint64_t> probes;
  size_t last_types = 0;
  Result<int> refused = testing::RunChurnSoak(
      catalog, pool, /*blocks=*/8,
      [&](const testing::ChurnRequest&, const Schema& before,
          const Schema& after) {
        uint64_t start = metrics.CounterValue("verify.dispatch_probes");
        std::vector<std::string> issues;
        CheckDispatchPreserved(before, after, &issues);
        probes.push_back(metrics.CounterValue("verify.dispatch_probes") -
                         start);
        last_types = before.types().NumTypes();
      });
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_EQ(*refused, 56);
  ASSERT_EQ(probes.size(), 128u);
  EXPECT_GT(last_types, 200u);
  std::vector<uint64_t> first(probes.begin(), probes.begin() + 16);
  std::vector<uint64_t> last(probes.end() - 16, probes.end());
  std::sort(first.begin(), first.end());
  std::sort(last.begin(), last.end());
  EXPECT_EQ(first, last);
}
#endif  // TYDER_OBS_ENABLED

}  // namespace
}  // namespace tyder
