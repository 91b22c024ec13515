#include "core/algebra.h"

#include "methods/accessor_gen.h"

namespace tyder {

Result<TypeId> DeriveSelection(Schema& schema, TypeId source,
                               std::string_view view_name) {
  if (source >= schema.types().NumTypes()) {
    return Status::InvalidArgument("source type id out of range");
  }
  // A selection view is an ordinary subtype (the catalog records its
  // provenance); kUser keeps it out of surrogate-specific machinery.
  TYDER_ASSIGN_OR_RETURN(TypeId view,
                         schema.types().DeclareType(view_name, TypeKind::kUser));
  TYDER_RETURN_IF_ERROR(schema.types().AddSupertype(view, source));
  return view;
}

std::vector<AttrId> CommonAttributes(const Schema& schema, TypeId a, TypeId b) {
  std::vector<AttrId> out;
  for (AttrId attr : schema.types().CumulativeAttributes(a)) {
    if (schema.types().AttributeAvailableAt(b, attr)) out.push_back(attr);
  }
  return out;
}

Result<DerivationResult> DeriveGeneralization(SchemaTransaction& txn, TypeId a,
                                              TypeId b,
                                              std::string_view view_name,
                                              const ProjectionOptions& options) {
  const Schema& schema = txn.draft();
  std::vector<AttrId> common = CommonAttributes(schema, a, b);
  if (common.empty()) {
    return Status::FailedPrecondition(
        "types '" + schema.types().TypeName(a) + "' and '" +
        schema.types().TypeName(b) + "' share no attributes");
  }
  ProjectionSpec spec;
  spec.source = a;
  spec.attributes = common;
  spec.view_name = std::string(view_name);
  return DeriveProjection(txn, spec, options);
}

Result<DerivationResult> DeriveRenameView(
    SchemaTransaction& txn, TypeId source,
    const std::vector<AttributeRename>& renames, std::string_view view_name,
    const ProjectionOptions& options) {
  Schema& schema = txn.draft();
  if (renames.empty()) {
    return Status::InvalidArgument("rename view needs at least one alias");
  }
  // Resolve and validate the aliases up front, before mutating anything.
  std::vector<std::pair<AttrId, std::string>> resolved;
  std::set<std::string> used;
  for (const AttributeRename& r : renames) {
    TYDER_ASSIGN_OR_RETURN(AttrId attr,
                           schema.types().FindAttribute(r.attribute));
    if (!schema.types().AttributeAvailableAt(source, attr)) {
      return Status::InvalidArgument("attribute '" + r.attribute +
                                     "' is not available at the source type");
    }
    if (r.alias.empty() || !used.insert(r.alias).second) {
      return Status::InvalidArgument("alias '" + r.alias +
                                     "' is empty or duplicated");
    }
    if (schema.types().FindAttribute(r.alias).ok()) {
      return Status::AlreadyExists("alias '" + r.alias +
                                   "' collides with an existing attribute");
    }
    resolved.emplace_back(attr, r.alias);
  }
  // The view keeps the full state; projection machinery does the factoring.
  ProjectionSpec spec;
  spec.source = source;
  spec.attributes = schema.types().CumulativeAttributes(source);
  spec.view_name = std::string(view_name);
  TYDER_ASSIGN_OR_RETURN(DerivationResult result,
                         DeriveProjection(txn, spec, options));
  for (const auto& [attr, alias] : resolved) {
    TYDER_RETURN_IF_ERROR(
        GenerateAliasReader(schema, attr, alias, result.derived).status());
    TYDER_RETURN_IF_ERROR(
        GenerateAliasMutator(schema, attr, alias, result.derived).status());
  }
  return result;
}

}  // namespace tyder
