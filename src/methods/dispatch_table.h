// Precomputed dispatch structures (the hot-path engine over methods/):
//
//   1. GfDispatchData — per-generic-function applicability masks: for every
//      argument position and every type T, a packed bitset over the gf's
//      methods (registration order) with bit j set iff T ≼ formal_j at that
//      position. A call's applicable-method set is the AND of one mask per
//      position — O(positions × words) instead of O(methods × positions)
//      subtype tests. Built lazily per gf against the schema version and
//      shared by concurrent readers.
//
//   2. DispatchCache — a fixed-size, direct-mapped call-site cache in the
//      style of polymorphic inline caches: (gf, actual argument type tuple)
//      → the specificity-sorted applicable prefix. Dispatch() and
//      DispatchOrder() consult it before computing anything; a schema
//      mutation bumps the version, which retires the whole cache (the slot
//      machinery in common/analysis_cache.h). Hit/miss counts are exported
//      as `dispatch.cache_hit` / `dispatch.cache_miss`.
//
// Both structures hang off Schema's analysis-cache slots, so schema copies
// (every transaction's clone included) start cold and nothing here can leak
// stale answers across a mutation.

#ifndef TYDER_METHODS_DISPATCH_TABLE_H_
#define TYDER_METHODS_DISPATCH_TABLE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "methods/schema.h"

namespace tyder {

// Applicability masks for one generic function. Immutable once built.
struct GfDispatchData {
  int arity = 0;
  size_t num_types = 0;
  size_t words = 0;  // words per mask (covers the gf's method count)
  std::vector<MethodId> methods;  // registration order; bit j ↔ methods[j]
  // Laid out [position][type][word]; Mask(i, t) is the per-position row.
  std::vector<uint64_t> masks;

  const uint64_t* Mask(int pos, TypeId t) const {
    return masks.data() + (static_cast<size_t>(pos) * num_types + t) * words;
  }
};

// The lazily filled per-gf table set for one schema version. Readers take
// the shared lock; a builder publishes a gf's data under the exclusive
// lock. A gf's masks cost O(types × arity) subtype tests to build, so they
// are only built once the gf has been queried kBuildThreshold times at this
// schema version — one-shot workloads (a single derivation over a fresh
// schema, the behavior-preservation verifier's sweep) keep the direct
// per-method scan, repeated dispatch gets the tables.
class DispatchTables {
 public:
  static constexpr uint32_t kBuildThreshold = 4;

  // Gfs with at most this many methods never get tables: the direct scan is
  // a handful of O(1) subtype tests, cheaper than even a warm table lookup
  // (slot fetch + shared lock + refcounts). Accessor gfs — one reader per
  // attribute, the bulk of any schema here — all land in this bucket.
  static constexpr size_t kDirectScanMax = 2;

  // The table set for `schema` at its current version.
  static std::shared_ptr<DispatchTables> ForSchema(const Schema& schema);

  // The masks for `gf` if already built, else nullptr.
  std::shared_ptr<const GfDispatchData> TryGet(GfId gf) const;

  // Records one applicability query for `gf`; true once the gf is hot
  // enough that the caller should Build() its masks.
  bool NoteUse(GfId gf);

  // Builds and publishes the masks for `gf` (idempotent under races).
  // `schema` must be the schema this table set was created for.
  std::shared_ptr<const GfDispatchData> Build(const Schema& schema, GfId gf);

 private:
  mutable std::shared_mutex mu_;
  std::vector<std::shared_ptr<const GfDispatchData>> per_gf_;
  std::unique_ptr<std::atomic<uint32_t>[]> uses_;
};

// Fast-path ApplicableMethods: mask-AND over the precomputed tables once a
// gf runs hot (see DispatchTables::kBuildThreshold), a direct per-method
// scan before that and always for tiny gfs (kDirectScanMax) — exact same
// result (and order) as scanning schema.gf(gf).methods with
// ApplicableToCall either way.
std::vector<MethodId> ApplicableMethodsFromTables(
    const Schema& schema, GfId gf, const std::vector<TypeId>& arg_types);

// Direct-mapped call-site cache. Covers calls with arity ≤ kMaxArity; wider
// calls bypass it (no schema in the repo exceeds arity 2, but correctness
// does not depend on the bound).
class DispatchCache {
 public:
  static constexpr size_t kLines = 512;  // power of two
  static constexpr size_t kMaxArity = 4;
  static constexpr size_t kMaxOrder = 8;

  struct CachedOrder {
    // Specificity-sorted applicable methods, truncated to kMaxOrder.
    std::array<MethodId, kMaxOrder> order;
    uint16_t full_len = 0;  // true applicable count (may exceed kMaxOrder)
    bool Complete() const { return full_len <= kMaxOrder; }
  };

  // The cache for `schema` at its current version (built empty on first use
  // or after a mutation).
  static std::shared_ptr<DispatchCache> ForSchema(const Schema& schema);

  // True on hit; fills `out`. Counts dispatch.cache_hit / _miss.
  bool Lookup(GfId gf, const std::vector<TypeId>& arg_types,
              CachedOrder* out) const;

  // Installs the sorted applicable set for the call (silently ignored for
  // calls wider than kMaxArity).
  void Insert(GfId gf, const std::vector<TypeId>& arg_types,
              const std::vector<MethodId>& sorted_applicable);

 private:
  struct Line {
    bool valid = false;
    GfId gf = kInvalidGf;
    uint8_t nargs = 0;
    std::array<TypeId, kMaxArity> args{};
    CachedOrder cached;
  };

  static size_t IndexOf(GfId gf, const std::vector<TypeId>& arg_types);

  mutable std::mutex mu_;
  std::array<Line, kLines> lines_{};
};

}  // namespace tyder

#endif  // TYDER_METHODS_DISPATCH_TABLE_H_
