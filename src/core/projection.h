// The projection operation over types — tyder's primary public API.
// DeriveProjection runs the paper's full pipeline:
//
//   1. IsApplicable (Section 4.1): infer which methods survive on T̃.
//   2. FactorState (Section 5.1): refactor the hierarchy with surrogates;
//      the top surrogate is the derived type.
//   3. Augment set computation + Augment (Sections 6.3–6.4): state-less
//      surrogates needed by method-body retyping.
//   4. FactorMethods (Section 6.1): re-home applicable method signatures and
//      retype bodies.
//   5. (optional) verification that existing types kept exactly their state
//      and behavior, and that the result type-checks.

#ifndef TYDER_CORE_PROJECTION_H_
#define TYDER_CORE_PROJECTION_H_

#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/factor_methods.h"
#include "core/factor_state.h"
#include "core/is_applicable.h"
#include "core/transaction.h"
#include "methods/schema.h"
#include "obs/tracer.h"

namespace tyder {

struct ProjectionSpec {
  TypeId source = kInvalidType;
  std::vector<AttrId> attributes;  // the projection list
  std::string view_name;           // name of the derived type
};

struct ProjectionOptions {
  // Capture the derivation as a structured trace: when no obs::Tracer is
  // installed on the thread, DeriveProjection installs a local one for the
  // duration of the call and fills DerivationResult::events (one span per
  // paper phase, narration as instant events) plus the rendered
  // DerivationResult::trace lines. When a tracer is already installed (e.g.
  // tyderc --trace), events flow to it and are copied into the result.
  bool record_trace = false;
  // Run the behavior-preservation verifier against the pre-derivation schema
  // and fail the derivation on any violation. Failure contract: a verifier
  // rejection returns Status::Internal carrying the VerifyReport, and — like
  // every other failure in the pipeline — the schema is rolled back to its
  // pre-call state first (see the all-or-nothing guarantee below), so a
  // rejected derivation never leaves the half-refactored hierarchy live.
  bool verify = true;
};

struct DerivationResult {
  TypeId derived = kInvalidType;
  ProjectionSpec spec;  // the request that produced this derivation
  ApplicabilityResult applicability;
  SurrogateSet surrogates;
  std::set<TypeId> augment_z;            // the paper's Z
  std::vector<MethodRewrite> rewrites;
  // Structured trace (record_trace only): spans for DeriveProjection and the
  // IsApplicable / FactorState / Augment / FactorMethods / Verify phases,
  // with the per-step narration as instant events. Export with obs/export.h.
  std::vector<obs::TraceEvent> events;
  // Back-compat rendering of `events`: the IsApplicable + FactorState +
  // Augment + FactorMethods narration lines, in emission order.
  std::vector<std::string> trace;
};

// Derives Π_attributes(source) as a step of `txn`: mutates `txn.draft()` in
// place and verifies it against `txn.before()`, so the draft must not have
// been mutated yet. On failure the draft is left half-derived; the caller
// drops the transaction.
Result<DerivationResult> DeriveProjection(SchemaTransaction& txn,
                                          const ProjectionSpec& spec,
                                          const ProjectionOptions& options = {});

// Derives Π_attributes(source) on `schema`, all-or-nothing: on any non-OK
// return — invalid spec, a failure in any phase, or a verifier rejection —
// `schema` is untouched and serializes byte-identically to its pre-call
// state; on OK the transaction's draft is swapped in (core/transaction.h).
inline Result<DerivationResult> DeriveProjection(
    Schema& schema, const ProjectionSpec& spec,
    const ProjectionOptions& options = {}) {
  return CloneAndSwap(schema, [&](SchemaTransaction& txn) {
    return DeriveProjection(txn, spec, options);
  });
}

// Resolves a name-based projection request ("Person", {"name","age"}, "V")
// against the schema. Fails with NotFound on unknown names.
Result<ProjectionSpec> ResolveProjectionSpec(
    const Schema& schema, std::string_view source_type,
    const std::vector<std::string>& attribute_names,
    std::string_view view_name);

// Name-based convenience wrapper.
Result<DerivationResult> DeriveProjectionByName(
    Schema& schema, std::string_view source_type,
    const std::vector<std::string>& attribute_names, std::string_view view_name,
    const ProjectionOptions& options = {});

}  // namespace tyder

#endif  // TYDER_CORE_PROJECTION_H_
