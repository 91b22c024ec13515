#include "core/transaction.h"

#include "obs/obs.h"

namespace tyder {

namespace {

Schema Clone(const Schema& schema) {
  TYDER_COUNT("catalog.clones");
  TYDER_TIMED("catalog.clone_ns");
  return schema;
}

}  // namespace

SchemaTransaction::SchemaTransaction(const Schema& before)
    : before_(before), draft_(Clone(before)) {}

SchemaTransaction::~SchemaTransaction() {
  if (committed_) return;
  TYDER_COUNT("projection.rollbacks");
  TYDER_RECORD(kOp, "txn.rollback");
  obs::Narrate(nullptr, "transaction rollback");
}

Schema SchemaTransaction::Commit() {
  committed_ = true;
  return std::move(draft_);
}

}  // namespace tyder
