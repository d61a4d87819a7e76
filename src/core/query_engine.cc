#include "core/query_engine.h"

#include <string>
#include <unordered_set>

namespace csrplus::core {

Status ValidateQueries(const std::vector<Index>& queries, Index num_nodes,
                       QueryDuplicates duplicates) {
  if (queries.empty()) {
    return Status::InvalidArgument("query set is empty");
  }
  for (Index q : queries) {
    if (q < 0 || q >= num_nodes) {
      return Status::InvalidArgument("query node " + std::to_string(q) +
                                     " out of range [0, " +
                                     std::to_string(num_nodes) + ")");
    }
  }
  if (duplicates == QueryDuplicates::kReject) {
    std::unordered_set<Index> seen;
    seen.reserve(queries.size());
    for (Index q : queries) {
      if (!seen.insert(q).second) {
        return Status::InvalidArgument("duplicate query node " +
                                       std::to_string(q));
      }
    }
  }
  return Status::OK();
}

}  // namespace csrplus::core
