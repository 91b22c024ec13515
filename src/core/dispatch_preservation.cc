#include "core/dispatch_preservation.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>

#include "common/failpoint.h"
#include "objmodel/linearize.h"
#include "obs/obs.h"

namespace tyder {

namespace {

enum Side { kBefore = 0, kAfter = 1 };
constexpr int kSides = 2;
constexpr uint32_t kAbsent = UINT32_MAX;

// The pre-existing types grouped by their CPLs restricted to the formals of
// every generic function, per side. Members of a profile are alike to every
// call; the profiles number at most the live types plus one, because every
// detached tombstone has the empty profile.
struct Profiles {
  std::vector<uint32_t> of;  // per pre-existing type
  std::vector<std::vector<TypeId>> cpl[kSides];  // per profile
};

Profiles BuildProfiles(const Schema* const (&schemas)[kSides], size_t n) {
  std::vector<char> is_formal(
      std::max(n, schemas[kAfter]->types().NumTypes()), 0);
  for (const Schema* schema : schemas) {
    for (GfId g = 0; g < schemas[kBefore]->NumGenericFunctions(); ++g) {
      for (MethodId m : schema->gf(g).methods) {
        for (TypeId formal : schema->method(m).sig.params) {
          is_formal[formal] = 1;
        }
      }
    }
  }
  Profiles profiles;
  profiles.of.resize(n);
  std::map<std::array<std::vector<TypeId>, kSides>, uint32_t> profile_by_key;
  std::array<std::vector<TypeId>, kSides> key;
  for (TypeId t = 0; t < n; ++t) {
    for (int side = 0; side < kSides; ++side) {
      key[side].clear();
      for (TypeId u : ClassPrecedenceList(schemas[side]->types(), t)) {
        if (is_formal[u]) key[side].push_back(u);
      }
    }
    auto [it, fresh] = profile_by_key.try_emplace(
        key, static_cast<uint32_t>(profile_by_key.size()));
    profiles.of[t] = it->second;
    if (!fresh) continue;
    for (int side = 0; side < kSides; ++side) {
      profiles.cpl[side].push_back(key[side]);
    }
  }
  return profiles;
}

// One argument position of a generic function, the profiles partitioned
// into classes by the position's formals alone.
struct PositionClasses {
  std::vector<TypeId> formals;  // both sides' formals here, sorted
  std::vector<uint32_t> class_of;  // per profile
  size_t num_classes = 0;
  // rank[side][c * formals.size() + j]: position of formals[j] among the
  // formals in class c's CPL on `side`; kAbsent when it is not a supertype.
  std::vector<uint32_t> rank[kSides];

  uint32_t Rank(int side, uint32_t c, uint32_t j) const {
    return rank[side][c * formals.size() + j];
  }
};

// Keys every profile by the position's formals its CPLs hold, in CPL
// order, per side; `key_sides` is 1 only in the known-bad build, which
// keys on the before-CPL alone.
void BuildClasses(const Profiles& profiles,
                  const std::vector<int>& formal_index, int key_sides,
                  PositionClasses* pos) {
  const size_t width = pos->formals.size();
  const size_t count = profiles.cpl[kBefore].size();
  std::map<std::array<std::vector<uint32_t>, kSides>, uint32_t> class_by_key;
  std::array<std::vector<uint32_t>, kSides> key;
  std::vector<uint32_t> ranks[kSides];
  pos->class_of.resize(count);
  for (size_t p = 0; p < count; ++p) {
    for (int side = 0; side < kSides; ++side) {
      key[side].clear();
      ranks[side].assign(width, kAbsent);
      uint32_t r = 0;
      for (TypeId u : profiles.cpl[side][p]) {
        int j = formal_index[u];
        if (j < 0) continue;
        ranks[side][static_cast<size_t>(j)] = r++;
        if (side < key_sides) key[side].push_back(static_cast<uint32_t>(j));
      }
    }
    auto [it, fresh] = class_by_key.try_emplace(
        key, static_cast<uint32_t>(class_by_key.size()));
    pos->class_of[p] = it->second;
    if (!fresh) continue;
    for (int side = 0; side < kSides; ++side) {
      pos->rank[side].insert(pos->rank[side].end(), ranks[side].begin(),
                             ranks[side].end());
    }
  }
  pos->num_classes = class_by_key.size();
}

// A method of the generic function, its formals as indices into
// PositionClasses::formals.
struct FormalRow {
  MethodId method;
  std::vector<uint32_t> formal;
};

// The method a call whose argument classes are `tuple` dispatches to on
// `side`: among the applicable methods, the first registered one with the
// smallest formal ranks compared position by position, i.e. the front of
// SortBySpecificity's stable sort. kInvalidMethod when none applies.
MethodId Winner(const std::vector<PositionClasses>& positions,
                const std::vector<FormalRow>& methods, int side,
                const std::vector<uint32_t>& tuple) {
  const FormalRow* best = nullptr;
  for (const FormalRow& m : methods) {
    bool applicable = true;
    for (size_t i = 0; i < tuple.size() && applicable; ++i) {
      applicable = positions[i].Rank(side, tuple[i], m.formal[i]) != kAbsent;
    }
    if (!applicable) continue;
    if (best == nullptr) {
      best = &m;
      continue;
    }
    for (size_t i = 0; i < tuple.size(); ++i) {
      uint32_t mine = positions[i].Rank(side, tuple[i], m.formal[i]);
      uint32_t theirs = positions[i].Rank(side, tuple[i], best->formal[i]);
      if (mine == theirs) continue;
      if (mine < theirs) best = &m;
      break;
    }
  }
  return best == nullptr ? kInvalidMethod : best->method;
}

// Appends "dispatch of m(...) changed" for every type tuple extending `args`
// whose class prefix is in `changed_prefixes`, in lexicographic order.
void ReportChangedCalls(const Schema& before, GfId g,
                        const std::vector<uint32_t>& profile_of,
                        const std::vector<PositionClasses>& positions,
                        const std::set<std::vector<uint32_t>>& changed_prefixes,
                        std::vector<TypeId>* args,
                        std::vector<uint32_t>* classes,
                        std::vector<std::string>* issues) {
  const size_t depth = args->size();
  if (depth == positions.size()) {
    std::string call = before.gf(g).name.str() + "(";
    for (size_t i = 0; i < depth; ++i) {
      if (i > 0) call += ", ";
      call += before.types().TypeName((*args)[i]);
    }
    issues->push_back("dispatch of " + call + ") changed");
    return;
  }
  for (TypeId t = 0; t < profile_of.size(); ++t) {
    classes->push_back(positions[depth].class_of[profile_of[t]]);
    if (changed_prefixes.count(*classes) != 0) {
      args->push_back(t);
      ReportChangedCalls(before, g, profile_of, positions, changed_prefixes,
                         args, classes, issues);
      args->pop_back();
    }
    classes->pop_back();
  }
}

}  // namespace

void CheckDispatchPreserved(const Schema& before, const Schema& after,
                            std::vector<std::string>* issues) {
  const size_t n = before.types().NumTypes();
  const Schema* const schemas[kSides] = {&before, &after};
  const Profiles profiles = BuildProfiles(schemas, n);
  // The known-bad build of the differential test: keyed on the before-CPL
  // alone, a class merges types whose dispatch diverges only after.
  const int key_sides =
      TYDER_FAULT_CONSUME("chaos.verify_before_key_only") ? 1 : kSides;
  std::vector<int> formal_index(std::max(n, after.types().NumTypes()), -1);
  for (GfId g = 0; g < before.NumGenericFunctions(); ++g) {
    const size_t arity = static_cast<size_t>(before.gf(g).arity);
    if (n == 0 && arity > 0) continue;  // no call to compare
    std::vector<PositionClasses> positions(arity);
    for (size_t i = 0; i < arity; ++i) {
      std::vector<TypeId>& formals = positions[i].formals;
      for (const Schema* schema : schemas) {
        for (MethodId m : schema->gf(g).methods) {
          const std::vector<TypeId>& params = schema->method(m).sig.params;
          if (params.size() == arity) formals.push_back(params[i]);
        }
      }
      std::sort(formals.begin(), formals.end());
      formals.erase(std::unique(formals.begin(), formals.end()),
                    formals.end());
      for (size_t j = 0; j < formals.size(); ++j) {
        formal_index[formals[j]] = static_cast<int>(j);
      }
      BuildClasses(profiles, formal_index, key_sides, &positions[i]);
      for (TypeId f : formals) formal_index[f] = -1;
    }
    std::vector<FormalRow> methods[kSides];
    for (int side = 0; side < kSides; ++side) {
      for (MethodId m : schemas[side]->gf(g).methods) {
        const std::vector<TypeId>& params = schemas[side]->method(m).sig.params;
        if (params.size() != arity) continue;  // applicable to no call
        FormalRow row{m, {}};
        for (size_t i = 0; i < arity; ++i) {
          const std::vector<TypeId>& formals = positions[i].formals;
          row.formal.push_back(static_cast<uint32_t>(
              std::lower_bound(formals.begin(), formals.end(), params[i]) -
              formals.begin()));
        }
        methods[side].push_back(std::move(row));
      }
    }
    // One probe per class tuple, in odometer order.
    std::set<std::vector<uint32_t>> changed_prefixes;
    std::vector<uint32_t> tuple(arity, 0);
    int64_t probes = 0;
    for (bool more = true; more;) {
      ++probes;
      if (Winner(positions, methods[kBefore], kBefore, tuple) !=
          Winner(positions, methods[kAfter], kAfter, tuple)) {
        for (size_t len = 0; len <= arity; ++len) {
          changed_prefixes.emplace(tuple.begin(), tuple.begin() + len);
        }
      }
      more = false;
      for (size_t i = arity; i-- > 0 && !more;) {
        more = ++tuple[i] < positions[i].num_classes;
        if (!more) tuple[i] = 0;
      }
    }
    TYDER_COUNT_N("verify.dispatch_probes", probes);
    if (changed_prefixes.empty()) continue;
    // Every member tuple of a changed class tuple changed as well.
    std::vector<TypeId> args;
    std::vector<uint32_t> classes;
    ReportChangedCalls(before, g, profiles.of, positions, changed_prefixes,
                       &args, &classes, issues);
  }
}

}  // namespace tyder
