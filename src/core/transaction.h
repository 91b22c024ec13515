// SchemaTransaction: all-or-nothing schema mutation by clone-and-swap. The
// paper's guarantee — existing types keep exactly their original state and
// behavior — is only meaningful if a failed derivation leaves the schema
// untouched. A transaction clones the schema once (method bodies are shared
// shared_ptrs, so the clone is structure-only) and every step mutates the
// clone, the draft. The original is never written while the transaction is
// open, so it is also the verifier's before-image. Commit() hands the draft
// over by move; an uncommitted transaction just drops it, so a rollback
// copies nothing.
//
// Operations built from others (a Catalog view definition deriving a
// projection) open one transaction and hand it to their steps, which mutate
// its draft in place. A step that compares against before() (a verified
// derivation) must run before any other step has mutated the draft. Steps
// that do not compare may follow one another on one draft for as long as
// the caller likes: WAL recovery replays each run of such records into one
// transaction.
//
// The durable catalog (storage/durable_catalog.h) drafts on a clone of its
// tip and publishes the committed draft by pointer as the new tip and schema
// epoch (core/epoch.h). Metrics: `catalog.clones`, `catalog.clone_ns`, and
// `projection.rollbacks` for dropped drafts (docs/ROBUSTNESS.md).

#ifndef TYDER_CORE_TRANSACTION_H_
#define TYDER_CORE_TRANSACTION_H_

#include <utility>

#include "methods/schema.h"

namespace tyder {

class SchemaTransaction {
 public:
  // Clones `before` into the draft: the transaction's one whole-schema copy.
  // `before` must outlive the transaction and stay unmodified until Commit.
  explicit SchemaTransaction(const Schema& before);
  // Drops the draft unless Commit() took it.
  ~SchemaTransaction();

  SchemaTransaction(const SchemaTransaction&) = delete;
  SchemaTransaction& operator=(const SchemaTransaction&) = delete;

  // The clone every step mutates.
  Schema& draft() { return draft_; }
  // The untouched pre-transaction schema.
  const Schema& before() const { return before_; }

  // Moves the draft out; the caller swaps it in for before().
  Schema Commit();
  bool committed() const { return committed_; }

 private:
  const Schema& before_;
  Schema draft_;
  bool committed_ = false;
};

// Runs `op(txn)` on a transaction over `schema` and swaps the draft into
// `schema` when the result is OK; on failure `schema` is untouched.
template <typename Op>
auto CloneAndSwap(Schema& schema, Op&& op) {
  SchemaTransaction txn(schema);
  auto result = std::forward<Op>(op)(txn);
  if (result.ok()) schema = txn.Commit();
  return result;
}

}  // namespace tyder

#endif  // TYDER_CORE_TRANSACTION_H_
