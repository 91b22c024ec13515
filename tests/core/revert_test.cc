#include "core/revert.h"

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/serialize.h"
#include "core/dispatch_preservation.h"
#include "core/verify.h"
#include "mir/printer.h"
#include "objmodel/schema_printer.h"
#include "testing/fixtures.h"

namespace tyder {
namespace {

class RevertTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fx = testing::BuildExample1(/*with_z_methods=*/true);
    ASSERT_TRUE(fx.ok()) << fx.status();
    fx_ = std::move(fx).value();
    original_hierarchy_ = PrintHierarchy(fx_.schema.types());
    original_methods_ = PrintAllMethods(fx_.schema);
    snapshot_ = fx_.schema;
  }

  DerivationResult Derive() {
    ProjectionSpec spec;
    spec.source = fx_.a;
    spec.attributes = {fx_.a2, fx_.e2, fx_.h2};
    spec.view_name = "ProjA";
    auto result = DeriveProjection(fx_.schema, spec);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(result).value();
  }

  testing::Example1Fixture fx_;
  Schema snapshot_;
  std::string original_hierarchy_;
  std::string original_methods_;
};

TEST_F(RevertTest, RoundTripRestoresHierarchyAndMethods) {
  DerivationResult derivation = Derive();
  ASSERT_NE(PrintHierarchy(fx_.schema.types()), original_hierarchy_);
  Status reverted = RevertDerivation(fx_.schema, derivation);
  ASSERT_TRUE(reverted.ok()) << reverted;
  EXPECT_EQ(PrintHierarchy(fx_.schema.types()), original_hierarchy_);
  EXPECT_EQ(PrintAllMethods(fx_.schema), original_methods_);
}

TEST_F(RevertTest, RevertedSchemaBehavesLikeTheOriginal) {
  DerivationResult derivation = Derive();
  ASSERT_TRUE(RevertDerivation(fx_.schema, derivation).ok());
  std::vector<std::string> issues;
  CheckDispatchPreserved(snapshot_, fx_.schema, &issues);
  // Dispatch identical over every pre-existing type... except calls probing
  // the (now detached) surrogate ids, which did not exist in the snapshot,
  // so the snapshot comparison only covers snapshot-era types — exactly what
  // we want.
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST_F(RevertTest, SurrogatesDetachedAndSourceStateRestored) {
  DerivationResult derivation = Derive();
  ASSERT_TRUE(RevertDerivation(fx_.schema, derivation).ok());
  for (TypeId surrogate : derivation.surrogates.created) {
    EXPECT_TRUE(fx_.schema.types().type(surrogate).detached());
    EXPECT_TRUE(fx_.schema.types().type(surrogate).local_attributes().empty());
  }
  // a2 home again, in declaration order.
  EXPECT_EQ(fx_.schema.types().attribute(fx_.a2).owner, fx_.a);
  EXPECT_EQ(fx_.schema.types().type(fx_.a).local_attributes(),
            (std::vector<AttrId>{fx_.a1, fx_.a2}));
}

TEST_F(RevertTest, DoubleRevertRefused) {
  DerivationResult derivation = Derive();
  ASSERT_TRUE(RevertDerivation(fx_.schema, derivation).ok());
  EXPECT_EQ(RevertDerivation(fx_.schema, derivation).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(RevertTest, RefusedWhenLaterDerivationObservesSurrogates) {
  DerivationResult first = Derive();
  // Project the derived view again: the second derivation's surrogates hang
  // off the first one's.
  ProjectionSpec second;
  second.source = first.derived;
  second.attributes = {fx_.a2};
  second.view_name = "ProjA2";
  auto r2 = DeriveProjection(fx_.schema, second);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(RevertDerivation(fx_.schema, first).code(),
            StatusCode::kFailedPrecondition);
  // Reverting in reverse order works.
  EXPECT_TRUE(RevertDerivation(fx_.schema, *r2).ok());
  EXPECT_TRUE(RevertDerivation(fx_.schema, first).ok());
  EXPECT_EQ(PrintHierarchy(fx_.schema.types()), original_hierarchy_);
}

TEST_F(RevertTest, ReDerivationAfterRevertMatchesPaperAgain) {
  DerivationResult derivation = Derive();
  ASSERT_TRUE(RevertDerivation(fx_.schema, derivation).ok());
  // The name ProjA is still taken by the detached husk, so a fresh name.
  ProjectionSpec spec;
  spec.source = fx_.a;
  spec.attributes = {fx_.a2, fx_.e2, fx_.h2};
  spec.view_name = "ProjA_again";
  auto again = DeriveProjection(fx_.schema, spec);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->augment_z, (std::set<TypeId>{fx_.d, fx_.g}));
}

TEST(CatalogDropViewTest, DropProjectionViewRestoresSchema) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  std::string original = PrintHierarchy(fx->schema.types());
  Catalog catalog(std::move(fx->schema));
  ASSERT_TRUE(catalog
                  .DefineProjectionView("V", "Employee",
                                        {"SSN", "date_of_birth", "pay_rate"})
                  .ok());
  ASSERT_TRUE(catalog.DropView("V").ok());
  EXPECT_EQ(PrintHierarchy(catalog.schema().types()), original);
  EXPECT_FALSE(catalog.FindView("V").ok());
}

TEST(CatalogDropViewTest, DropSelectionView) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  Catalog catalog(std::move(fx->schema));
  ASSERT_TRUE(catalog.DefineSelectionView("Sel", "Employee").ok());
  ASSERT_TRUE(catalog.DropView("Sel").ok());
  auto sel = catalog.schema().types().FindType("Sel");
  ASSERT_TRUE(sel.ok());
  EXPECT_TRUE(catalog.schema().types().type(*sel).detached());
}

TEST(CatalogDropViewTest, RenameViewCannotBeDropped) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  Catalog catalog(std::move(fx->schema));
  ASSERT_TRUE(catalog
                  .DefineRenameView("R", "Employee",
                                    {{"pay_rate", "hourly_wage"}})
                  .ok());
  EXPECT_EQ(catalog.DropView("R").code(), StatusCode::kFailedPrecondition);
}

TEST(CatalogDropViewTest, UnknownViewReported) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok());
  Catalog catalog(std::move(fx->schema));
  EXPECT_EQ(catalog.DropView("Ghost").code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace tyder
