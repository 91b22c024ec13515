#include "core/collapse.h"

#include <algorithm>

#include "common/failpoint.h"
#include "mir/expr.h"

namespace tyder {

namespace {

// Types mentioned by any method signature or body declaration.
std::set<TypeId> ReferencedTypes(const Schema& schema) {
  std::set<TypeId> out;
  for (MethodId m = 0; m < schema.NumMethods(); ++m) {
    const Method& method = schema.method(m);
    for (TypeId t : method.sig.params) out.insert(t);
    out.insert(method.sig.result);
    if (method.body != nullptr) {
      VisitPreorder(method.body, [&out](const Expr& e) {
        if (e.kind == ExprKind::kDecl) out.insert(e.decl_type);
      });
    }
  }
  // Attribute value types are observable too.
  for (AttrId a = 0; a < schema.types().NumAttributes(); ++a) {
    out.insert(schema.types().attribute(a).value_type);
  }
  return out;
}

bool CollapsibleWith(const Schema& schema, TypeId t,
                     const std::set<TypeId>& keep,
                     const std::set<TypeId>& referenced) {
  const Type& type = schema.types().type(t);
  return type.kind() == TypeKind::kSurrogate && !type.detached() &&
         type.local_attributes().empty() && keep.count(t) == 0 &&
         referenced.count(t) == 0;
}

// Splices `t` out: every direct subtype replaces its edge to `t` with `t`'s
// supertypes (in order, at the same precedence position, skipping ones it
// already has), then `t` is detached.
void Splice(Schema& schema, TypeId t) {
  std::vector<TypeId> supers = schema.types().type(t).supertypes();
  for (TypeId sub = 0; sub < schema.types().NumTypes(); ++sub) {
    if (sub == t) continue;
    Type& sub_type = schema.types().mutable_type(sub);
    if (!sub_type.HasDirectSupertype(t)) continue;
    // Find t's precedence position, remove it, insert t's supers there.
    const std::vector<TypeId>& list = sub_type.supertypes();
    size_t pos = static_cast<size_t>(
        std::find(list.begin(), list.end(), t) - list.begin());
    sub_type.RemoveSupertype(t);
    size_t insert_at = pos;
    for (TypeId s : supers) {
      if (sub_type.HasDirectSupertype(s)) continue;
      sub_type.InsertSupertypeAt(insert_at, s);
      ++insert_at;
    }
  }
  Type& type = schema.types().mutable_type(t);
  while (!type.supertypes().empty()) {
    type.RemoveSupertype(type.supertypes().front());
  }
  type.set_detached(true);
}

}  // namespace

bool IsCollapsible(const Schema& schema, TypeId t,
                   const std::set<TypeId>& keep) {
  return CollapsibleWith(schema, t, keep, ReferencedTypes(schema));
}

Result<CollapseReport> CollapseEmptySurrogates(SchemaTransaction& txn,
                                               const std::set<TypeId>& keep) {
  Schema& schema = txn.draft();
  TYDER_FAULT_POINT("collapse.before");
  CollapseReport report;
  // Referenced-type set is collapse-invariant (collapse edits only edges),
  // so one computation serves the whole fixpoint loop.
  std::set<TypeId> referenced = ReferencedTypes(schema);
  bool changed = true;
  while (changed) {
    changed = false;
    for (TypeId t = 0; t < schema.types().NumTypes(); ++t) {
      if (!CollapsibleWith(schema, t, keep, referenced)) continue;
      Splice(schema, t);
      report.collapsed.push_back(t);
      changed = true;
      // Mid-phase failure site: this surrogate already spliced out.
      TYDER_FAULT_POINT("collapse.mid");
    }
  }
  TYDER_RETURN_IF_ERROR(schema.Validate());
  return report;
}

}  // namespace tyder
