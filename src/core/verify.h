// Behavior-preservation verification. The paper's central guarantee
// (Sections 1, 5): after a derivation, "existing types are not affected:
// they must have both the same state and the same behavior as before". This
// module checks that guarantee mechanically against a pre-derivation
// snapshot:
//
//   - structural validity of the refactored schema;
//   - static type-correctness of every (rewritten) method body;
//   - cumulative state of every pre-existing type unchanged;
//   - dispatch unchanged: every generic-function call over pre-existing
//     argument types selects the same method as before
//     (core/dispatch_preservation.h);
//   - the derived type's state is exactly the projection list, and its
//     behavior is exactly the Applicable set.

#ifndef TYDER_CORE_VERIFY_H_
#define TYDER_CORE_VERIFY_H_

#include <string>
#include <vector>

#include "core/projection.h"
#include "methods/schema.h"

namespace tyder {

struct VerifyReport {
  std::vector<std::string> issues;

  bool ok() const { return issues.empty(); }
  std::string ToString() const;
};

// `before` is a snapshot taken just before DeriveProjection mutated `after`.
VerifyReport VerifyDerivation(const Schema& before, const Schema& after,
                              const DerivationResult& result);

}  // namespace tyder

#endif  // TYDER_CORE_VERIFY_H_
