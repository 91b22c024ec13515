// RevertDerivation: the inverse of DeriveProjection — drop a derived view
// type and restore the schema to its pre-derivation shape. Possible because
// the derivation records everything it did: the surrogate set (attribute
// moves are recoverable from surrogate-local attributes) and every method
// rewrite (old signature and body).
//
// Reverting is refused when anything outside the derivation observes its
// surrogates: a type added later that inherits from one, or a method (not in
// the rewrite set) whose signature or body mentions one. Surrogate nodes are
// detached, not erased, so ids stay stable.

#ifndef TYDER_CORE_REVERT_H_
#define TYDER_CORE_REVERT_H_

#include "common/status.h"
#include "core/projection.h"
#include "core/transaction.h"
#include "methods/schema.h"

namespace tyder {

// Reverts in place on `txn`'s draft; on failure the draft is left
// half-unwound and the caller drops the transaction.
Status RevertDerivation(SchemaTransaction& txn,
                        const DerivationResult& derivation);

// All-or-nothing guarantee: on any non-OK return (refused revert or
// mid-unwind failure) `schema` is untouched and serializes byte-identically
// to its pre-call state.
inline Status RevertDerivation(Schema& schema,
                               const DerivationResult& derivation) {
  return CloneAndSwap(schema, [&](SchemaTransaction& txn) {
    return RevertDerivation(txn, derivation);
  });
}

}  // namespace tyder

#endif  // TYDER_CORE_REVERT_H_
