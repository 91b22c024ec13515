#include "catalog/catalog.h"

#include "common/failpoint.h"
#include "core/algebra.h"
#include "core/revert.h"

namespace tyder {

Result<Catalog> Catalog::Create() {
  Catalog catalog;
  TYDER_ASSIGN_OR_RETURN(catalog.schema_, Schema::Create());
  return catalog;
}

namespace {

// Clone-and-swap: runs the draft operation `Op` on a draft of `catalog` and
// moves the draft in when the result is OK; on failure `catalog` is
// untouched.
template <auto Op, typename... Args>
auto Mutate(Catalog& catalog, const Args&... args) {
  CatalogDraft draft(catalog);
  auto result = (draft.*Op)(args...);
  if (result.ok()) catalog = draft.Commit();
  return result;
}

}  // namespace

Result<const ViewDef*> Catalog::DefineProjectionView(
    std::string_view name, std::string_view source_type,
    const std::vector<std::string>& attribute_names,
    const ProjectionOptions& options) {
  return Mutate<&CatalogDraft::DefineProjectionView>(
      *this, name, source_type, attribute_names, options);
}

Result<const ViewDef*> Catalog::DefineSelectionView(
    std::string_view name, std::string_view source_type) {
  return Mutate<&CatalogDraft::DefineSelectionView>(*this, name, source_type);
}

Result<const ViewDef*> Catalog::DefineGeneralizationView(
    std::string_view name, std::string_view type_a, std::string_view type_b,
    const ProjectionOptions& options) {
  return Mutate<&CatalogDraft::DefineGeneralizationView>(*this, name, type_a,
                                                          type_b, options);
}

Result<const ViewDef*> Catalog::DefineRenameView(
    std::string_view name, std::string_view source_type,
    const std::vector<AttributeRename>& renames,
    const ProjectionOptions& options) {
  return Mutate<&CatalogDraft::DefineRenameView>(*this, name, source_type,
                                                  renames, options);
}

Result<const ViewDef*> Catalog::FindView(std::string_view name) const {
  for (const ViewDef& def : views_) {
    if (def.name == name) return &def;
  }
  return Status::NotFound("no view named '" + std::string(name) + "'");
}

Status Catalog::DropView(std::string_view name) {
  return Mutate<&CatalogDraft::DropView>(*this, name);
}

Result<CollapseReport> Catalog::Collapse() {
  return Mutate<&CatalogDraft::Collapse>(*this);
}

CatalogDraft::CatalogDraft(const Catalog& source)
    : txn_(source.schema_), views_(source.views_) {}

Status CatalogDraft::CheckNewView(std::string_view name) const {
  for (const ViewDef& def : views_) {
    if (def.name == name) {
      return Status::AlreadyExists("view '" + std::string(name) +
                                   "' already defined");
    }
  }
  return Status::OK();
}

const ViewDef* CatalogDraft::AddView(ViewDef def) {
  views_.push_back(std::move(def));
  return &views_.back();
}

Result<const ViewDef*> CatalogDraft::DefineProjectionView(
    std::string_view name, std::string_view source_type,
    const std::vector<std::string>& attribute_names,
    const ProjectionOptions& options) {
  TYDER_RETURN_IF_ERROR(CheckNewView(name));
  TYDER_ASSIGN_OR_RETURN(ProjectionSpec spec,
                         ResolveProjectionSpec(txn_.draft(), source_type,
                                               attribute_names, name));
  ViewDef def;
  def.name = std::string(name);
  def.op = ViewOpKind::kProjection;
  def.source = spec.source;
  def.attributes = spec.attributes;
  TYDER_ASSIGN_OR_RETURN(def.derivation,
                         DeriveProjection(txn_, spec, options));
  TYDER_FAULT_POINT("catalog.define.after_derive");
  def.derived = def.derivation.derived;
  return AddView(std::move(def));
}

Result<const ViewDef*> CatalogDraft::DefineSelectionView(
    std::string_view name, std::string_view source_type) {
  TYDER_RETURN_IF_ERROR(CheckNewView(name));
  ViewDef def;
  def.name = std::string(name);
  def.op = ViewOpKind::kSelection;
  TYDER_ASSIGN_OR_RETURN(def.source,
                         txn_.draft().types().FindType(source_type));
  TYDER_ASSIGN_OR_RETURN(def.derived,
                         DeriveSelection(txn_.draft(), def.source, name));
  TYDER_FAULT_POINT("catalog.define.after_derive");
  return AddView(std::move(def));
}

Result<const ViewDef*> CatalogDraft::DefineGeneralizationView(
    std::string_view name, std::string_view type_a, std::string_view type_b,
    const ProjectionOptions& options) {
  TYDER_RETURN_IF_ERROR(CheckNewView(name));
  ViewDef def;
  def.name = std::string(name);
  def.op = ViewOpKind::kGeneralization;
  TYDER_ASSIGN_OR_RETURN(def.source, txn_.draft().types().FindType(type_a));
  TYDER_ASSIGN_OR_RETURN(def.source2, txn_.draft().types().FindType(type_b));
  TYDER_ASSIGN_OR_RETURN(
      def.derivation,
      DeriveGeneralization(txn_, def.source, def.source2, name, options));
  TYDER_FAULT_POINT("catalog.define.after_derive");
  def.derived = def.derivation.derived;
  return AddView(std::move(def));
}

Result<const ViewDef*> CatalogDraft::DefineRenameView(
    std::string_view name, std::string_view source_type,
    const std::vector<AttributeRename>& renames,
    const ProjectionOptions& options) {
  TYDER_RETURN_IF_ERROR(CheckNewView(name));
  ViewDef def;
  def.name = std::string(name);
  def.op = ViewOpKind::kRename;
  def.renames = renames;
  TYDER_ASSIGN_OR_RETURN(def.source,
                         txn_.draft().types().FindType(source_type));
  TYDER_ASSIGN_OR_RETURN(
      def.derivation,
      DeriveRenameView(txn_, def.source, renames, name, options));
  TYDER_FAULT_POINT("catalog.define.after_derive");
  def.derived = def.derivation.derived;
  return AddView(std::move(def));
}

Status CatalogDraft::DropView(std::string_view name) {
  auto it = views_.begin();
  for (; it != views_.end(); ++it) {
    if (it->name == name) break;
  }
  if (it == views_.end()) {
    return Status::NotFound("no view named '" + std::string(name) + "'");
  }
  Schema& schema = txn_.draft();
  switch (it->op) {
    case ViewOpKind::kProjection:
    case ViewOpKind::kGeneralization:
      TYDER_RETURN_IF_ERROR(RevertDerivation(txn_, it->derivation));
      break;
    case ViewOpKind::kRename:
      return Status::FailedPrecondition(
          "rename view '" + std::string(name) +
          "' cannot be dropped: its alias accessors are part of the schema");
    case ViewOpKind::kSelection: {
      // A selection view is a leaf subtype; detach it if nothing observes it.
      TypeId view = it->derived;
      for (TypeId t = 0; t < schema.types().NumTypes(); ++t) {
        if (t != view && schema.types().type(t).HasDirectSupertype(view)) {
          return Status::FailedPrecondition(
              "selection view '" + std::string(name) + "' has subtypes");
        }
      }
      for (MethodId m = 0; m < schema.NumMethods(); ++m) {
        for (TypeId t : schema.method(m).sig.params) {
          if (t == view) {
            return Status::FailedPrecondition(
                "selection view '" + std::string(name) +
                "' is referenced by method '" +
                schema.method(m).label.str() + "'");
          }
        }
      }
      Type& node = schema.types().mutable_type(view);
      while (!node.supertypes().empty()) {
        node.RemoveSupertype(node.supertypes().front());
      }
      node.set_detached(true);
      break;
    }
  }
  // Schema mutations done but the registry entry still present: a failure
  // here must drop the draft and keep the view listed.
  TYDER_FAULT_POINT("catalog.drop.mid");
  views_.erase(it);
  return Status::OK();
}

Result<CollapseReport> CatalogDraft::Collapse() {
  std::set<TypeId> keep;
  for (const ViewDef& def : views_) keep.insert(def.derived);
  return CollapseEmptySurrogates(txn_, keep);
}

Catalog CatalogDraft::Commit() {
  return Catalog::Restore(txn_.Commit(), std::move(views_));
}

Catalog Catalog::Restore(Schema schema, std::vector<ViewDef> views) {
  Catalog catalog(std::move(schema));
  catalog.views_ = std::move(views);
  return catalog;
}

size_t Catalog::LiveSurrogateCount() const {
  size_t n = 0;
  for (TypeId t = 0; t < schema_.types().NumTypes(); ++t) {
    const Type& type = schema_.types().type(t);
    if (type.kind() == TypeKind::kSurrogate && !type.detached()) ++n;
  }
  return n;
}

}  // namespace tyder
