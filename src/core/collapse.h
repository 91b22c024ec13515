// Empty-surrogate collapse — the paper's Section 7 open problem: "it needs to
// be investigated how the number of surrogate types with empty states can be
// reduced in the refactored type hierarchy, particularly when views are
// defined over views."
//
// A surrogate is collapsible when nothing observes it: it carries no local
// attributes, no method signature or body declaration mentions it, and the
// caller has not marked it protected (derived view types stay). Collapsing
// splices the surrogate out — each direct subtype inherits the surrogate's
// supertypes at the surrogate's precedence position — and detaches the node.
// Because nothing references a collapsed type, cumulative state and dispatch
// over all remaining types are unchanged (re-checked by tests and the
// views-over-views ablation bench).

#ifndef TYDER_CORE_COLLAPSE_H_
#define TYDER_CORE_COLLAPSE_H_

#include <set>
#include <vector>

#include "common/result.h"
#include "core/transaction.h"
#include "methods/schema.h"

namespace tyder {

struct CollapseReport {
  std::vector<TypeId> collapsed;  // in collapse order
};

// Collapses every collapsible surrogate, iterating to fixpoint. Types in
// `keep` are never collapsed (pass the derived view types the catalog still
// exposes).
//
// The SchemaTransaction overload collapses in place on the draft; the Schema
// overload is all-or-nothing: on any non-OK return the schema is untouched
// (no surrogate stays half-spliced) and serializes byte-identically to its
// pre-call state.
Result<CollapseReport> CollapseEmptySurrogates(SchemaTransaction& txn,
                                               const std::set<TypeId>& keep);
inline Result<CollapseReport> CollapseEmptySurrogates(
    Schema& schema, const std::set<TypeId>& keep) {
  return CloneAndSwap(schema, [&](SchemaTransaction& txn) {
    return CollapseEmptySurrogates(txn, keep);
  });
}

// True iff `t` could be collapsed right now (exposed for tests/benches).
bool IsCollapsible(const Schema& schema, TypeId t,
                   const std::set<TypeId>& keep);

}  // namespace tyder

#endif  // TYDER_CORE_COLLAPSE_H_
