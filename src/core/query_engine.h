// The unified query interface every CoSimRank engine implements.
//
// CSR+ and all five comparison baselines expose the same online contract —
// "given a query set Q, produce the n x |Q| similarity block [S]_{*,Q}" —
// but each used to do so through a concrete type with a near-duplicate
// signature. QueryEngine makes the contract explicit so the serving layer
// (src/service/), the eval runner and the CLI can hold *any* engine behind
// one pointer:
//
//   std::unique_ptr<core::QueryEngine> engine = ...;   // CSR+, NI, IT, ...
//   auto block = engine->MultiSourceQuery({q1, q2});
//
// Implementations must be safe for concurrent queries from multiple threads
// between mutations (most engines hold immutable precomputed state; engines
// with mutating members, like DynamicCsrPlusEngine::ApplyUpdates, require
// the caller to serialise mutation against in-flight queries — serving
// stacks get that for free by mutating a clone and swapping it in through
// QueryService::PublishEngine; see docs/mutations.md).

#ifndef CSRPLUS_CORE_QUERY_ENGINE_H_
#define CSRPLUS_CORE_QUERY_ENGINE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "linalg/dense_matrix.h"

namespace csrplus::core {

using linalg::DenseMatrix;
using linalg::Index;

/// Advertised cost of answering a query batch, in abstract work units
/// (fused multiply-add count of the dominant kernels — comparable across
/// engines on one machine, not a wall-clock promise). A serving layer uses
/// the ratio between two engines' estimates to decide routing; absolute
/// values only need to be monotone in real cost. All-zero means "not
/// advertised" and routing layers must treat the engine as opaque.
struct CostModel {
  /// Estimated total work for the batch the estimate was asked about.
  double batch_cost = 0.0;
  /// Marginal work of one additional query column at that batch width.
  double per_query_cost = 0.0;

  bool advertised() const { return batch_cost > 0.0 || per_query_cost > 0.0; }
};

/// Whether an engine's answers are exact (up to floating-point rounding of
/// an exact identity) or carry an approximation error by construction.
enum class AccuracyClass {
  kExact,        ///< exact identity; error_bound is 0
  kApproximate,  ///< estimator / truncation; error_bound quantifies it
};

/// Advertised accuracy of an engine's answer function.
struct AccuracyTag {
  AccuracyClass accuracy = AccuracyClass::kExact;
  /// For kApproximate: an a-priori bound on the expected absolute error of
  /// one score entry (e.g. the Monte-Carlo standard-deviation bound
  /// sum_k c^k / sqrt(d) for RP-CoSim). 0 for exact engines. The bound is
  /// a contract: measured average error on any workload must not exceed it
  /// (tests enforce this on the accuracy-bench fixtures).
  double error_bound = 0.0;

  bool exact() const { return accuracy == AccuracyClass::kExact; }
};

/// Abstract multi-source CoSimRank query engine.
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// Multi-source query: the n x |Q| block [S]_{*,Q}, one column per query
  /// in request order. Column j must depend only on queries[j], so a batch
  /// over a union of query sets is bit-identical to the per-request blocks
  /// (the property the service layer's micro-batching relies on).
  /// This is the only query method: a single source is the one-wide
  /// block MultiSourceQuery({q}).
  virtual Result<DenseMatrix> MultiSourceQuery(
      const std::vector<Index>& queries) const = 0;

  /// Number of nodes n this engine serves.
  virtual Index NumNodes() const = 0;

  /// Stable display name ("CSR+", "CSR-NI", ...); matches
  /// service::EngineKindName.
  virtual std::string_view Name() const = 0;

  /// Identity of the engine's *answer function*: two engines with the same
  /// non-zero fingerprint are guaranteed to return bit-identical results for
  /// every query, so their answer columns are interchangeable (the contract
  /// the service-layer column cache relies on). The value must change
  /// whenever the answers could change wholesale — e.g. the dynamic engine
  /// rotates it on every full rebuild, while across incremental update
  /// batches it stays stable and the UpdateReceipt's touched support names
  /// the columns that changed (delta invalidation; docs/mutations.md).
  /// Returning 0 means "cannot vouch for my state"; callers must never
  /// cache under fingerprint 0. The default is 0, so engines opt *in* to
  /// cacheability.
  virtual uint64_t StateFingerprint() const { return 0; }

  /// Advertised cost of a `batch_queries`-wide multi-source call, in the
  /// abstract work units of CostModel. The default ({0, 0}) means "not
  /// advertised"; engines opt in so the serving tiers (docs/serving-tiers.md)
  /// can compare an exact and an approximate engine without timing them.
  virtual CostModel EstimateCost(Index batch_queries) const {
    (void)batch_queries;
    return CostModel{};
  }

  /// Advertised accuracy of the answer function. Defaults to exact with a
  /// zero error bound — correct for every engine computing an exact identity
  /// (CSR+, NI, the reference iteration); estimators must override it and
  /// vouch for a bound their measured error respects.
  virtual AccuracyTag Accuracy() const { return AccuracyTag{}; }
};

/// Whether a query set may mention the same node twice.
enum class QueryDuplicates {
  kAllow,   ///< engines: a duplicate just repeats a column.
  kReject,  ///< service requests: a duplicate is almost certainly a bug.
};

/// The one shared query-set validation: non-empty, every index in
/// [0, num_nodes), and (under kReject) no duplicate nodes. Every engine and
/// the service layer funnel through this instead of inlining their own copy.
Status ValidateQueries(const std::vector<Index>& queries, Index num_nodes,
                       QueryDuplicates duplicates = QueryDuplicates::kAllow);

}  // namespace csrplus::core

#endif  // CSRPLUS_CORE_QUERY_ENGINE_H_
