// The other algebraic operations over types (paper Section 7 lists applying
// the methodology to the remaining operations as future work; these are the
// straightforward ones):
//
//   - Selection (σ): the derived type has the same attributes and behavior as
//     the source, so it is simply a direct subtype of the source — every
//     method remains applicable by inheritance, and no refactoring is needed.
//     (The selection predicate restricts the *extent*, handled in
//     instances/view_materialize.h.)
//
//   - Generalization (upward inheritance, ref [17]): the common projection of
//     two types — Π over the attributes available at both — reusing the full
//     projection machinery.

#ifndef TYDER_CORE_ALGEBRA_H_
#define TYDER_CORE_ALGEBRA_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/projection.h"
#include "methods/schema.h"

namespace tyder {

// Creates the selection view type as a direct subtype of `source`.
Result<TypeId> DeriveSelection(Schema& schema, TypeId source,
                               std::string_view view_name);

// Attributes available at both `a` and `b` (by attribute identity, which
// under globally-unique attribute names equals by-name matching).
std::vector<AttrId> CommonAttributes(const Schema& schema, TypeId a, TypeId b);

// Derives the generalization of `a` and `b`: Π_{CommonAttributes}(a). Fails
// if the common attribute set is empty. The overloads follow
// DeriveProjection's: a step of `txn`, or all-or-nothing on `schema`.
Result<DerivationResult> DeriveGeneralization(
    SchemaTransaction& txn, TypeId a, TypeId b, std::string_view view_name,
    const ProjectionOptions& options = {});
inline Result<DerivationResult> DeriveGeneralization(
    Schema& schema, TypeId a, TypeId b, std::string_view view_name,
    const ProjectionOptions& options = {}) {
  return CloneAndSwap(schema, [&](SchemaTransaction& txn) {
    return DeriveGeneralization(txn, a, b, view_name, options);
  });
}

// Rename (ρ): a view over the full state of `source` whose listed attributes
// are additionally exposed under alias accessors (`get_<alias>` /
// `set_<alias>` read and write the *same* slots; the original accessors keep
// working). Attribute identity is untouched — renaming is an interface-level
// operation in a behavioral type system.
struct AttributeRename {
  std::string attribute;  // existing attribute name
  std::string alias;      // new public name
};
// The overloads follow DeriveProjection's; a failed alias unwinds the
// projection too.
Result<DerivationResult> DeriveRenameView(
    SchemaTransaction& txn, TypeId source,
    const std::vector<AttributeRename>& renames, std::string_view view_name,
    const ProjectionOptions& options = {});
inline Result<DerivationResult> DeriveRenameView(
    Schema& schema, TypeId source, const std::vector<AttributeRename>& renames,
    std::string_view view_name, const ProjectionOptions& options = {}) {
  return CloneAndSwap(schema, [&](SchemaTransaction& txn) {
    return DeriveRenameView(txn, source, renames, view_name, options);
  });
}

}  // namespace tyder

#endif  // TYDER_CORE_ALGEBRA_H_
