// Catalog: the top-level container a database would expose — a Schema plus
// the registry of derived views over it (views are "simply added to the list
// of existing relations", paper Section 1). Views may be defined over views;
// the catalog tracks provenance, making the Section-7 views-over-views
// surrogate-growth experiment and the collapse ablation possible.

#ifndef TYDER_CATALOG_CATALOG_H_
#define TYDER_CATALOG_CATALOG_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/algebra.h"
#include "core/collapse.h"
#include "core/projection.h"
#include "core/transaction.h"
#include "methods/schema.h"

namespace tyder {

enum class ViewOpKind { kProjection, kSelection, kGeneralization, kRename };

struct ViewDef {
  std::string name;
  ViewOpKind op = ViewOpKind::kProjection;
  TypeId derived = kInvalidType;
  TypeId source = kInvalidType;          // primary source
  TypeId source2 = kInvalidType;         // generalization only
  std::vector<AttrId> attributes;        // projection list (if any)
  std::vector<AttributeRename> renames;  // rename views only
  // Full derivation record for projection-family views; lets DropView revert.
  DerivationResult derivation;
};

// All-or-nothing guarantee: every mutating Catalog operation (the four
// Define*View methods, DropView, and Collapse) runs on a CatalogDraft — one
// clone of the catalog (core/transaction.h). On any non-OK return the draft
// is dropped, so the schema serializes byte-identically to its pre-call state
// and `views()` is untouched; on OK the draft is moved in, so the schema
// mutation and the registry update land together.
class Catalog {
 public:
  static Result<Catalog> Create();
  // Wraps an already-built schema.
  explicit Catalog(Schema schema) : schema_(std::move(schema)) {}

  Schema& schema() { return schema_; }
  const Schema& schema() const { return schema_; }

  // Defines Π_attribute_names(source_type) as view `name` and records it.
  Result<const ViewDef*> DefineProjectionView(
      std::string_view name, std::string_view source_type,
      const std::vector<std::string>& attribute_names,
      const ProjectionOptions& options = {});

  // Defines a selection view (type-level part; the predicate applies at
  // materialization time).
  Result<const ViewDef*> DefineSelectionView(std::string_view name,
                                             std::string_view source_type);

  // Defines the generalization of two types over their common attributes.
  Result<const ViewDef*> DefineGeneralizationView(
      std::string_view name, std::string_view type_a, std::string_view type_b,
      const ProjectionOptions& options = {});

  // Defines a rename view: full-state projection plus alias accessors.
  Result<const ViewDef*> DefineRenameView(
      std::string_view name, std::string_view source_type,
      const std::vector<AttributeRename>& renames,
      const ProjectionOptions& options = {});

  const std::vector<ViewDef>& views() const { return views_; }
  Result<const ViewDef*> FindView(std::string_view name) const;

  // Reconstructs a catalog from an already-deserialized schema plus view
  // registry (storage/catalog_snapshot.h recovery path). Trusts its inputs;
  // the snapshot decoder has already validated both.
  static Catalog Restore(Schema schema, std::vector<ViewDef> views);

  // Drops a view, reverting its derivation (projection/generalization) or
  // detaching its type (selection). Refused when anything still observes the
  // view's types — including rename views, whose alias accessors cannot be
  // removed from the schema. A refused drop leaves both the schema and the
  // view registry exactly as they were (all-or-nothing, see class comment).
  Status DropView(std::string_view name);

  // Collapses empty surrogates, keeping every registered view type.
  Result<CollapseReport> Collapse();

  // Count of live (non-detached) surrogate types — the metric of the
  // views-over-views experiment.
  size_t LiveSurrogateCount() const;

 private:
  friend class CatalogDraft;
  Catalog() = default;

  Schema schema_;
  std::vector<ViewDef> views_;
};

// One catalog mutation by clone-and-swap. The constructor clones `source`
// once; the operations (same contracts as Catalog's) apply in place to that
// clone and verify against `source`, which must stay unmodified for the
// draft's lifetime. A draft may take several operations in a row, as WAL
// replay does, but an operation that verifies (a derivation with
// ProjectionOptions::verify) must be its first. A failed operation leaves
// the draft half-mutated: drop it. Commit() moves the mutated catalog out,
// never copying it — Catalog moves it back over `source`, DurableCatalog
// publishes it as its new tip. The returned ViewDef pointer of the last
// operation stays valid across Commit().
class CatalogDraft {
 public:
  explicit CatalogDraft(const Catalog& source);

  Result<const ViewDef*> DefineProjectionView(
      std::string_view name, std::string_view source_type,
      const std::vector<std::string>& attribute_names,
      const ProjectionOptions& options = {});
  Result<const ViewDef*> DefineSelectionView(std::string_view name,
                                             std::string_view source_type);
  Result<const ViewDef*> DefineGeneralizationView(
      std::string_view name, std::string_view type_a, std::string_view type_b,
      const ProjectionOptions& options = {});
  Result<const ViewDef*> DefineRenameView(
      std::string_view name, std::string_view source_type,
      const std::vector<AttributeRename>& renames,
      const ProjectionOptions& options = {});
  Status DropView(std::string_view name);
  Result<CollapseReport> Collapse();

  Catalog Commit();

 private:
  Status CheckNewView(std::string_view name) const;
  const ViewDef* AddView(ViewDef def);

  SchemaTransaction txn_;
  std::vector<ViewDef> views_;
};

}  // namespace tyder

#endif  // TYDER_CATALOG_CATALOG_H_
