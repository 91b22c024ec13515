#include "testing/churn.h"

#include <algorithm>
#include <random>

namespace tyder::testing {

workload::RandomSchemaOptions ChurnSoakSchemaOptions() {
  workload::RandomSchemaOptions options;
  options.seed = 1;
  options.num_types = 24;
  options.max_supers = 3;
  options.attrs_per_type = 2;
  options.num_general_methods = 12;
  options.max_stmts_per_body = 3;
  options.methods_per_gf = 2;
  return options;
}

std::vector<ChurnRequest> ChurnSoakPool(const Schema& seed_schema) {
  std::vector<ChurnRequest> pool;
  for (uint32_t i = 0; i < 16; ++i) {
    TypeId source;
    std::vector<AttrId> attrs;
    if (!workload::PickRandomProjection(seed_schema, 7919 + i, &source,
                                        &attrs)) {
      break;
    }
    ChurnRequest request{seed_schema.types().TypeName(source), {}};
    for (AttrId a : attrs) {
      request.attributes.push_back(
          seed_schema.types().attribute(a).name.str());
    }
    pool.push_back(std::move(request));
  }
  return pool;
}

Result<int> RunChurnSoak(Catalog& catalog,
                         const std::vector<ChurnRequest>& pool, int blocks,
                         const ChurnVisitor& visit) {
  // Same order source and view names as the benchmark's writer.
  std::mt19937_64 order_rng(1);
  int refused = 0;
  int round = 0;
  for (int block = 0; block < blocks; ++block) {
    std::vector<size_t> order(pool.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), order_rng);
    for (size_t i : order) {
      const ChurnRequest& request = pool[i];
      std::string view = "P" + std::to_string(round++);
      if (visit) {
        Schema after = catalog.schema();
        ProjectionOptions unverified;
        unverified.verify = false;
        if (DeriveProjectionByName(after, request.source, request.attributes,
                                   view, unverified)
                .ok()) {
          visit(request, catalog.schema(), after);
        }
      }
      if (!catalog.DefineProjectionView(view, request.source,
                                        request.attributes)
               .ok()) {
        ++refused;
        continue;
      }
      TYDER_RETURN_IF_ERROR(catalog.DropView(view));
    }
    TYDER_RETURN_IF_ERROR(catalog.Collapse().status());
  }
  return refused;
}

}  // namespace tyder::testing
