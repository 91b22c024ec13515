#include "core/verify.h"

#include <gtest/gtest.h>

#include "core/dispatch_preservation.h"
#include "testing/fixtures.h"

namespace tyder {
namespace {

class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fx = testing::BuildPersonEmployee();
    ASSERT_TRUE(fx.ok()) << fx.status();
    fx_ = std::move(fx).value();
    before_ = fx_.schema;
    ProjectionOptions options;
    options.verify = false;  // tests call the verifier explicitly
    auto result = DeriveProjectionByName(
        fx_.schema, "Employee", {"SSN", "date_of_birth", "pay_rate"},
        "EmployeeView", options);
    ASSERT_TRUE(result.ok()) << result.status();
    result_ = std::move(result).value();
  }

  testing::PersonEmployeeFixture fx_;
  Schema before_;
  DerivationResult result_;
};

TEST_F(VerifyTest, CleanDerivationPasses) {
  VerifyReport report = VerifyDerivation(before_, fx_.schema, result_);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.ToString(), "OK");
}

TEST_F(VerifyTest, DetectsStolenAttribute) {
  ASSERT_TRUE(
      fx_.schema.types().MoveAttribute(fx_.name, result_.derived).ok());
  VerifyReport report = VerifyDerivation(before_, fx_.schema, result_);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("cumulative state"), std::string::npos);
}

TEST_F(VerifyTest, DetectsDispatchHijack) {
  // Re-pointing income's formal at Person makes income applicable to calls
  // that previously had no method — dispatch changed.
  Signature hijacked = fx_.schema.method(fx_.income).sig;
  hijacked.params[0] = fx_.person;
  fx_.schema.SetMethodSignature(fx_.income, hijacked);
  VerifyReport report = VerifyDerivation(before_, fx_.schema, result_);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("dispatch of income(Person) changed"),
            std::string::npos);
}

TEST_F(VerifyTest, DetectsBrokenTyping) {
  // Widening a reader's result type breaks accessor well-formedness and the
  // static typing of bodies that use it.
  MethodId reader = fx_.schema.ReaderOf(fx_.pay_rate);
  ASSERT_NE(reader, kInvalidMethod);
  Signature bad = fx_.schema.method(reader).sig;
  bad.result = fx_.schema.builtins().string_type;
  fx_.schema.SetMethodSignature(reader, bad);
  VerifyReport report = VerifyDerivation(before_, fx_.schema, result_);
  EXPECT_FALSE(report.ok());
}

TEST_F(VerifyTest, DetectsMisreportedApplicability) {
  // Claim income (not applicable) as applicable: the derived-type behavior
  // check must flag it.
  DerivationResult lied = result_;
  lied.applicability.applicable.push_back(fx_.income);
  std::sort(lied.applicability.applicable.begin(),
            lied.applicability.applicable.end());
  VerifyReport report = VerifyDerivation(before_, fx_.schema, lied);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("inferred applicable"), std::string::npos);
}

TEST_F(VerifyTest, CheckDispatchPreservedAloneIsCallable) {
  std::vector<std::string> issues;
  CheckDispatchPreserved(before_, fx_.schema, &issues);
  EXPECT_TRUE(issues.empty());
}

}  // namespace
}  // namespace tyder
