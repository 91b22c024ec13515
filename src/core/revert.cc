#include "core/revert.h"

#include <set>

#include "common/failpoint.h"
#include "mir/expr.h"

namespace tyder {

namespace {

// Types outside `surrogates` that would dangle if the surrogates vanished.
Status CheckNoExternalObservers(const Schema& schema,
                                const DerivationResult& derivation) {
  std::set<TypeId> surrogate_ids;
  for (TypeId t : derivation.surrogates.created) surrogate_ids.insert(t);
  std::set<MethodId> rewritten;
  for (const MethodRewrite& rw : derivation.rewrites) {
    rewritten.insert(rw.method);
  }

  // Our surrogates' supertypes must all lie inside the derivation: a later
  // derivation that factors one of our surrogates (or re-homes its
  // attributes) announces itself by prepending *its* surrogate here.
  for (TypeId t : derivation.surrogates.created) {
    for (TypeId s : schema.types().type(t).supertypes()) {
      if (surrogate_ids.count(s) == 0) {
        return Status::FailedPrecondition(
            "surrogate '" + schema.types().TypeName(t) +
            "' was itself factored by a later derivation ('" +
            schema.types().TypeName(s) + "'); revert that one first");
      }
    }
  }

  // Edges: only the recorded source types (and the surrogates themselves)
  // may have a derivation surrogate as a direct supertype.
  for (TypeId t = 0; t < schema.types().NumTypes(); ++t) {
    if (surrogate_ids.count(t) > 0) continue;
    bool is_source = derivation.surrogates.Of(t) != kInvalidType;
    for (TypeId s : schema.types().type(t).supertypes()) {
      if (surrogate_ids.count(s) == 0) continue;
      if (!is_source || s != derivation.surrogates.Of(t)) {
        return Status::FailedPrecondition(
            "type '" + schema.types().TypeName(t) +
            "' inherits from this derivation's surrogate '" +
            schema.types().TypeName(s) + "'");
      }
    }
  }

  // Methods: only the recorded rewrites may mention a surrogate.
  for (MethodId m = 0; m < schema.NumMethods(); ++m) {
    if (rewritten.count(m) > 0) continue;
    const Method& method = schema.method(m);
    for (TypeId t : method.sig.params) {
      if (surrogate_ids.count(t) > 0) {
        return Status::FailedPrecondition(
            "method '" + method.label.str() +
            "' (outside the derivation) references surrogate '" +
            schema.types().TypeName(t) + "'");
      }
    }
    if (surrogate_ids.count(method.sig.result) > 0) {
      return Status::FailedPrecondition(
          "method '" + method.label.str() +
          "' (outside the derivation) returns a surrogate type");
    }
    bool bad_body = false;
    if (method.body != nullptr) {
      VisitPreorder(method.body, [&](const Expr& e) {
        if (e.kind == ExprKind::kDecl && surrogate_ids.count(e.decl_type) > 0) {
          bad_body = true;
        }
      });
    }
    if (bad_body) {
      return Status::FailedPrecondition(
          "method '" + method.label.str() +
          "' (outside the derivation) declares a surrogate-typed local");
    }
  }
  return Status::OK();
}

}  // namespace

Status RevertDerivation(SchemaTransaction& txn,
                        const DerivationResult& derivation) {
  Schema& schema = txn.draft();
  if (derivation.derived >= schema.types().NumTypes() ||
      schema.types().type(derivation.derived).detached()) {
    return Status::FailedPrecondition(
        "derivation is not active on this schema");
  }
  TYDER_RETURN_IF_ERROR(CheckNoExternalObservers(schema, derivation));
  TYDER_FAULT_POINT("revert.before");

  // 1. Restore method signatures and bodies.
  for (const MethodRewrite& rw : derivation.rewrites) {
    schema.SetMethodSignature(rw.method, rw.old_sig);
    if (rw.body_changed) schema.SetMethodBody(rw.method, rw.old_body);
  }

  // Mid-phase failure site: signatures restored, attributes still re-homed.
  TYDER_FAULT_POINT("revert.mid");

  // 2. Move attributes back to their sources and unhook the edges.
  for (const auto& [source, surrogate] : derivation.surrogates.of) {
    std::vector<AttrId> moved =
        schema.types().type(surrogate).local_attributes();
    for (AttrId a : moved) {
      TYDER_RETURN_IF_ERROR(schema.types().MoveAttribute(a, source));
    }
    Type& source_node = schema.types().mutable_type(source);
    source_node.RemoveSupertype(surrogate);
    source_node.SortLocalAttributes();  // back to declaration order
  }

  // 3. Detach the surrogate nodes.
  for (TypeId surrogate : derivation.surrogates.created) {
    Type& node = schema.types().mutable_type(surrogate);
    while (!node.supertypes().empty()) {
      node.RemoveSupertype(node.supertypes().front());
    }
    node.set_detached(true);
  }

  return schema.Validate();
}

}  // namespace tyder
