#include "core/verify.h"

#include <set>

#include "common/failpoint.h"
#include "core/dispatch_preservation.h"
#include "methods/applicability.h"
#include "mir/type_check.h"

namespace tyder {

namespace {

std::set<Symbol> CumulativeAttrNames(const Schema& schema, TypeId t) {
  std::set<Symbol> names;
  for (AttrId a : schema.types().CumulativeAttributes(t)) {
    names.insert(schema.types().attribute(a).name);
  }
  return names;
}

void CheckStatePreserved(const Schema& before, const Schema& after,
                         std::vector<std::string>* issues) {
  for (TypeId t = 0; t < before.types().NumTypes(); ++t) {
    std::set<Symbol> pre = CumulativeAttrNames(before, t);
    std::set<Symbol> post = CumulativeAttrNames(after, t);
    if (pre != post) {
      issues->push_back("cumulative state of '" + before.types().TypeName(t) +
                        "' changed");
    }
  }
}

void CheckDerivedType(const Schema& after, const DerivationResult& result,
                      std::vector<std::string>* issues) {
  TypeId derived = result.derived;
  if (derived >= after.types().NumTypes()) {
    issues->push_back("derived type id out of range");
    return;
  }
  // State: the derived type's cumulative attributes are exactly the
  // projection list.
  std::set<AttrId> expected(result.spec.attributes.begin(),
                            result.spec.attributes.end());
  std::vector<AttrId> actual_list = after.types().CumulativeAttributes(derived);
  std::set<AttrId> actual(actual_list.begin(), actual_list.end());
  if (!expected.empty() &&
      (expected != actual || actual_list.size() != actual.size())) {
    issues->push_back(
        "derived type state differs from the projection list");
  }
  for (MethodId m : result.applicability.applicable) {
    if (!ApplicableToType(after, m, derived)) {
      issues->push_back("method '" + after.method(m).label.str() +
                        "' was inferred applicable but is not applicable to "
                        "the derived type after factoring");
    }
  }
  for (MethodId m : result.applicability.not_applicable) {
    if (ApplicableToType(after, m, derived)) {
      issues->push_back("method '" + after.method(m).label.str() +
                        "' was inferred not applicable but is applicable to "
                        "the derived type after factoring");
    }
  }
}

}  // namespace

std::string VerifyReport::ToString() const {
  if (ok()) return "OK";
  std::string out;
  for (const std::string& issue : issues) {
    out += issue;
    out += "\n";
  }
  return out;
}

VerifyReport VerifyDerivation(const Schema& before, const Schema& after,
                              const DerivationResult& result) {
  VerifyReport report;
  // Fault point driving the genuine report-rejection path (the pipeline turns
  // a non-empty report into Status::Internal and rolls the schema back).
  if (TYDER_FAULT_CONSUME("verify.force_failure")) {
    report.issues.push_back("fault injected at 'verify.force_failure'");
  }
  Status valid = after.Validate();
  if (!valid.ok()) {
    report.issues.push_back("schema invalid after derivation: " +
                            valid.ToString());
  }
  Status typed = TypeCheckSchema(after);
  if (!typed.ok()) {
    report.issues.push_back("schema fails static type checking: " +
                            typed.ToString());
  }
  CheckStatePreserved(before, after, &report.issues);
  CheckDispatchPreserved(before, after, &report.issues);
  CheckDerivedType(after, result, &report.issues);
  return report;
}

}  // namespace tyder
