#include "oracle/reference.h"

#include <algorithm>
#include <deque>

#include "objmodel/linearize.h"

namespace tyder::oracle {

bool RefIsSubtype(const TypeGraph& graph, TypeId a, TypeId b) {
  if (a >= graph.NumTypes() || b >= graph.NumTypes()) return false;
  if (a == b) return true;
  std::vector<bool> seen(graph.NumTypes(), false);
  std::deque<TypeId> queue{a};
  seen[a] = true;
  while (!queue.empty()) {
    TypeId t = queue.front();
    queue.pop_front();
    for (TypeId super : graph.type(t).supertypes()) {
      if (super == b) return true;
      if (!seen[super]) {
        seen[super] = true;
        queue.push_back(super);
      }
    }
  }
  return false;
}

std::vector<bool> RefReachableSet(const TypeGraph& graph, TypeId a) {
  std::vector<bool> seen(graph.NumTypes(), false);
  if (a >= graph.NumTypes()) return seen;
  std::deque<TypeId> queue{a};
  seen[a] = true;
  while (!queue.empty()) {
    TypeId t = queue.front();
    queue.pop_front();
    for (TypeId super : graph.type(t).supertypes()) {
      if (!seen[super]) {
        seen[super] = true;
        queue.push_back(super);
      }
    }
  }
  return seen;
}

std::vector<AttrId> RefCumulativeState(const TypeGraph& graph, TypeId t) {
  std::vector<AttrId> attrs;
  if (t >= graph.NumTypes()) return attrs;
  std::vector<bool> seen(graph.NumTypes(), false);
  std::deque<TypeId> queue{t};
  seen[t] = true;
  while (!queue.empty()) {
    TypeId cur = queue.front();
    queue.pop_front();
    for (AttrId a : graph.type(cur).local_attributes()) attrs.push_back(a);
    for (TypeId super : graph.type(cur).supertypes()) {
      if (!seen[super]) {
        seen[super] = true;
        queue.push_back(super);
      }
    }
  }
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  return attrs;
}

bool RefApplicableToCall(const Schema& schema, MethodId m,
                         const std::vector<TypeId>& arg_types) {
  const Method& method = schema.method(m);
  if (method.sig.params.size() != arg_types.size()) return false;
  for (size_t i = 0; i < arg_types.size(); ++i) {
    if (!RefIsSubtype(schema.types(), arg_types[i], method.sig.params[i])) {
      return false;
    }
  }
  return true;
}

std::vector<MethodId> RefApplicableMethods(
    const Schema& schema, GfId gf, const std::vector<TypeId>& arg_types) {
  std::vector<MethodId> applicable;
  if (gf >= schema.NumGenericFunctions()) return applicable;
  for (MethodId m : schema.gf(gf).methods) {
    if (RefApplicableToCall(schema, m, arg_types)) applicable.push_back(m);
  }
  return applicable;
}

namespace {

// Rank of `formal` in the CPL of `actual`, recomputed from scratch:
// ClassPrecedenceList runs the full C3 merge (or its BFS fallback) and the
// rank is a linear scan of the result.
size_t NaiveCplRank(const TypeGraph& graph, TypeId actual, TypeId formal) {
  std::vector<TypeId> cpl = ClassPrecedenceList(graph, actual);
  auto it = std::find(cpl.begin(), cpl.end(), formal);
  return static_cast<size_t>(it - cpl.begin());  // == cpl.size() if absent
}

}  // namespace

bool RefMoreSpecific(const Schema& schema, MethodId a, MethodId b,
                     const std::vector<TypeId>& arg_types) {
  const Method& ma = schema.method(a);
  const Method& mb = schema.method(b);
  for (size_t i = 0; i < arg_types.size(); ++i) {
    TypeId fa = ma.sig.params[i];
    TypeId fb = mb.sig.params[i];
    if (fa == fb) continue;
    size_t rank_a = NaiveCplRank(schema.types(), arg_types[i], fa);
    size_t rank_b = NaiveCplRank(schema.types(), arg_types[i], fb);
    return rank_a < rank_b;
  }
  return false;  // identical formals: a tie
}

std::vector<MethodId> RefDispatchOrder(const Schema& schema, GfId gf,
                                       const std::vector<TypeId>& arg_types) {
  std::vector<MethodId> order = RefApplicableMethods(schema, gf, arg_types);
  std::stable_sort(order.begin(), order.end(),
                   [&](MethodId a, MethodId b) {
                     return RefMoreSpecific(schema, a, b, arg_types);
                   });
  return order;
}

Result<MethodId> RefDispatch(const Schema& schema, GfId gf,
                             const std::vector<TypeId>& arg_types) {
  std::vector<MethodId> order = RefDispatchOrder(schema, gf, arg_types);
  if (order.empty()) {
    return Status::NotFound("oracle: no applicable method for call");
  }
  return order.front();
}

std::vector<std::string> RefDispatchChanges(const Schema& before,
                                            const Schema& after) {
  std::vector<std::string> changes;
  const size_t n = before.types().NumTypes();
  for (GfId gf = 0; gf < before.NumGenericFunctions(); ++gf) {
    const size_t arity = static_cast<size_t>(before.gf(gf).arity);
    if (n == 0 && arity > 0) continue;
    std::vector<TypeId> args(arity, 0);
    for (bool more = true; more;) {
      Result<MethodId> pre = RefDispatch(before, gf, args);
      Result<MethodId> post = RefDispatch(after, gf, args);
      if (pre.ok() != post.ok() || (pre.ok() && *pre != *post)) {
        std::string call = before.gf(gf).name.str() + "(";
        for (size_t i = 0; i < arity; ++i) {
          if (i > 0) call += ", ";
          call += before.types().TypeName(args[i]);
        }
        changes.push_back("dispatch of " + call + ") changed");
      }
      more = false;
      for (size_t i = arity; i-- > 0 && !more;) {
        more = ++args[i] < n;
        if (!more) args[i] = 0;
      }
    }
  }
  return changes;
}

}  // namespace tyder::oracle
