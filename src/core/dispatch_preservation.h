// Dispatch preservation, the behavioral half of the paper's guarantee
// (Sections 5-6): after a derivation, every generic-function call over
// argument types that existed before it selects the same method as before.
//
// The check sweeps argument-type classes instead of type tuples. At each
// argument position of a generic function, the pre-existing types are
// grouped by which of that position's formals (from the before- and the
// after-signatures) lie in their class precedence list, and in what relative
// order, once in the before-CPL and once in the after-CPL. Members of one
// class are indistinguishable to every call on both sides, so one probe per
// tuple of classes decides all of its member tuples. The number of classes
// is bounded by the methods' formals, not by the number of types: detached
// tombstones, whose CPL holds no formal, all share one class. The
// exhaustive per-tuple sweep survives as the test oracle
// (oracle::RefDispatchChanges); docs/ALGORITHMS.md §5 has the argument.

#ifndef TYDER_CORE_DISPATCH_PRESERVATION_H_
#define TYDER_CORE_DISPATCH_PRESERVATION_H_

#include <string>
#include <vector>

#include "methods/schema.h"

namespace tyder {

// Appends "dispatch of m(T1, ..., Tk) changed" for every call over types
// of `before` whose dispatch outcome (its method, or no applicable method)
// differs in `after`, for every arity, in lexicographic order of the
// argument tuple within each generic function.
void CheckDispatchPreserved(const Schema& before, const Schema& after,
                            std::vector<std::string>* issues);

}  // namespace tyder

#endif  // TYDER_CORE_DISPATCH_PRESERVATION_H_
