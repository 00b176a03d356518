// Navigational (unsupported) evaluation of forward and backward path queries
// over the object representation — the baseline the paper's Qnas formulas
// model (§5.6). QueryEvaluator is the one object-base navigator: it answers
// unsupported queries, and the ASR's degraded hops over quarantined
// partitions.
//
// Forward queries chase references level by level from the anchor objects;
// every referenced object is fetched once per level, in page-batched order
// (Eq. 31). Backward queries cannot chase uni-directional references against
// their direction, so they perform the exhaustive search of §5.6.2: scan the
// full extent of t_i, then touch every object of the intermediate types that
// lies on any path, and finally select the t_i objects connected to a
// target (Eq. 32).
#ifndef ASR_ASR_QUERY_H_
#define ASR_ASR_QUERY_H_

#include <vector>

#include "asr/hop_plan.h"
#include "asr/path_expression.h"
#include "common/asr_key.h"
#include "common/status.h"
#include "gom/object_store.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace asr {

class AccessSupportRelation;

// What Explain returns: the query answer plus the per-stage span tree.
struct ExplainResult {
  std::vector<AsrKey> keys;
  obs::Trace trace;
  // True when the query went through the access support relation; false for
  // the navigational fallback.
  bool used_asr = false;
};

class QueryEvaluator {
 public:
  QueryEvaluator(gom::ObjectStore* store, const PathExpression* path)
      : store_(store), path_(path) {}

  // Q_{i,j}(fw) without access support over a frontier: keys at position j
  // reachable from any of `starts`, objects at position i.
  Result<std::vector<AsrKey>> Forward(std::vector<AsrKey> starts, uint32_t i,
                                      uint32_t j);

  // Q_{i,j}(bw) without access support over a frontier: position-i objects
  // with at least one path to any of `targets`, position-j objects (or
  // atomic values when j == n).
  Result<std::vector<AsrKey>> Backward(const std::vector<AsrKey>& targets,
                                       uint32_t i, uint32_t j);

  // The one-key forms: Q_{i,j} from `start`, and to `target`.
  Result<std::vector<AsrKey>> ForwardNoSupport(AsrKey start, uint32_t i,
                                               uint32_t j) {
    return Forward({start}, i, j);
  }
  Result<std::vector<AsrKey>> BackwardNoSupport(AsrKey target, uint32_t i,
                                                uint32_t j) {
    return Backward({target}, i, j);
  }

  // EXPLAIN: evaluates Q_{i,j} in `dir` under a trace and returns the answer
  // together with the span tree (per-stage page reads/writes, buffer
  // hits/misses, wall time; render with trace.ToText() or trace.ToJson()).
  // With `asr` non-null and its extension supporting Q_{i,j} (Eq. 35), the
  // query runs over the ASR's partition hops, and the root's "plan"
  // attribute renders their HopPlan; otherwise it falls back to the
  // navigational evaluation above (plan "navigational"). Single-threaded;
  // the trace reads the same AccessStats the Meter uses, so span costs line
  // up with the model's page counts.
  Result<ExplainResult> Explain(QueryDir dir, AsrKey anchor, uint32_t i,
                                uint32_t j,
                                AccessSupportRelation* asr = nullptr);

  // Pushes the evaluator's counters (query counts per direction, level
  // frontier sizes) into `registry` under `prefix`. Cold path.
  void ExportMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix) const;

 private:
  // Reads the A_{q+1} targets of each position-q object in `sources`,
  // page-batched; appends (source, target) pairs to `edges`.
  Status ExpandLevel(const std::vector<AsrKey>& sources, uint32_t q,
                     std::vector<std::pair<AsrKey, AsrKey>>* edges);

  gom::ObjectStore* store_;
  const PathExpression* path_;

  // Observability (compiled out under ASR_METRICS=OFF).
  obs::HotCounter fwd_queries_;
  obs::HotCounter bwd_queries_;
  obs::HotHistogram frontier_sizes_;  // sources per expanded level
};

}  // namespace asr

#endif  // ASR_ASR_QUERY_H_
