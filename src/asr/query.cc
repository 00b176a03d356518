#include "asr/query.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "asr/access_support_relation.h"

namespace asr {

Status QueryEvaluator::ExpandLevel(
    const std::vector<AsrKey>& sources, uint32_t q,
    std::vector<std::pair<AsrKey, AsrKey>>* edges) {
  const PathStep& step = path_->step(q + 1);
  std::vector<Oid> oids;
  oids.reserve(sources.size());
  for (AsrKey key : sources) {
    if (key.IsOid()) oids.push_back(key.ToOid());
  }
  // Distinct OIDs in OID order: the frontier may carry duplicates, and the
  // page-batched fetch groups best when same-page objects (adjacent OIDs)
  // arrive together.
  std::sort(oids.begin(), oids.end());
  oids.erase(std::unique(oids.begin(), oids.end()), oids.end());
  Result<std::vector<std::pair<Oid, std::vector<AsrKey>>>> targets =
      store_->GetAttributeTargets(std::move(oids), step.attr_name);
  ASR_RETURN_IF_ERROR(targets.status());
  for (const auto& [owner, values] : *targets) {
    for (AsrKey value : values) {
      edges->emplace_back(AsrKey::FromOid(owner), value);
    }
  }
  return Status::OK();
}

Result<std::vector<AsrKey>> QueryEvaluator::Forward(std::vector<AsrKey> starts,
                                                    uint32_t i, uint32_t j) {
  if (i >= j || j > path_->n()) {
    return Status::InvalidArgument("need 0 <= i < j <= n");
  }
  fwd_queries_.Inc();
  // Forward chasing never revisits a level, so the frontier needs no set
  // semantics until the end: ExpandLevel dedupes its sources and a final
  // unique pass collapses the result. One edges/sources pair is reused
  // across levels instead of reallocating per level.
  std::vector<AsrKey> sources = std::move(starts);
  std::vector<std::pair<AsrKey, AsrKey>> edges;
  for (uint32_t q = i; q < j; ++q) {
    frontier_sizes_.Observe(sources.size());
    obs::ScopedSpan level("level");
    if (level.active()) {
      level.Attr("from_pos", static_cast<uint64_t>(q));
      level.Attr("to_pos", static_cast<uint64_t>(q + 1));
      level.Attr("frontier", static_cast<uint64_t>(sources.size()));
    }
    edges.clear();
    ASR_RETURN_IF_ERROR(ExpandLevel(sources, q, &edges));
    sources.clear();
    sources.reserve(edges.size());
    for (const auto& [src, dst] : edges) sources.push_back(dst);
    if (sources.empty()) break;
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  return sources;
}

Result<std::vector<AsrKey>> QueryEvaluator::Backward(
    const std::vector<AsrKey>& targets, uint32_t i, uint32_t j) {
  if (i >= j || j > path_->n()) {
    return Status::InvalidArgument("need 0 <= i < j <= n");
  }
  bwd_queries_.Inc();
  const gom::Schema& schema = store_->schema();

  // Level i: exhaustive scan of the t_i extent (op_i page accesses, §5.6.2),
  // collecting every edge of attribute A_{i+1}; deeper levels fetch only the
  // objects actually referenced — RefBy(i, l, d_i) of them (Eq. 32).
  std::vector<std::vector<std::pair<AsrKey, AsrKey>>> level_edges(j);
  std::vector<AsrKey> sources;
  {
    obs::ScopedSpan scan("extent_scan");
    scan.Attr("position", static_cast<uint64_t>(i));
    const PathStep& step = path_->step(i + 1);
    for (TypeId t = 0; t < schema.type_count(); ++t) {
      if (!schema.IsTuple(t) || !schema.IsSubtypeOf(t, step.domain_type)) {
        continue;
      }
      Status st = store_->ScanWithTargets(
          t, step.attr_name,
          [&](Oid owner, const std::vector<AsrKey>& values) -> Status {
            for (AsrKey value : values) {
              level_edges[i].emplace_back(AsrKey::FromOid(owner), value);
            }
            return Status::OK();
          });
      ASR_RETURN_IF_ERROR(st);
    }
    sources.reserve(level_edges[i].size());
    for (const auto& [src, dst] : level_edges[i]) sources.push_back(dst);
  }

  // Intermediate levels i+1 .. j-1: fetch each connected object once
  // (ExpandLevel dedupes the frontier; the sources buffer is reused).
  for (uint32_t q = i + 1; q < j && !sources.empty(); ++q) {
    frontier_sizes_.Observe(sources.size());
    obs::ScopedSpan level("level");
    if (level.active()) {
      level.Attr("from_pos", static_cast<uint64_t>(q));
      level.Attr("to_pos", static_cast<uint64_t>(q + 1));
      level.Attr("frontier", static_cast<uint64_t>(sources.size()));
    }
    std::vector<std::pair<AsrKey, AsrKey>>& edges = level_edges[q];
    ASR_RETURN_IF_ERROR(ExpandLevel(sources, q, &edges));
    sources.clear();
    sources.reserve(edges.size());
    for (const auto& [src, dst] : edges) sources.push_back(dst);
  }

  // Back-propagate connectivity from the targets (in memory).
  obs::ScopedSpan backprop("backpropagate");
  std::unordered_set<AsrKey> reaching(targets.begin(), targets.end());
  for (uint32_t q = j; q-- > i;) {
    std::unordered_set<AsrKey> prev;
    for (const auto& [src, dst] : level_edges[q]) {
      if (reaching.count(dst) > 0) prev.insert(src);
    }
    reaching = std::move(prev);
  }
  return std::vector<AsrKey>(reaching.begin(), reaching.end());
}

Result<ExplainResult> QueryEvaluator::Explain(QueryDir dir, AsrKey anchor,
                                              uint32_t i, uint32_t j,
                                              AccessSupportRelation* asr) {
  storage::BufferManager* buffers = store_->buffers();
  storage::Disk* disk = buffers->disk();
  // The probe reads the same AccessStats the Meter uses (global disk
  // counters plus the shared pool's hit/miss totals), so span costs are in
  // the model's unit. Reading statistics never touches pages: tracing does
  // not change the metered cost of the traced query.
  obs::ProbeFn probe = [buffers, disk] {
    obs::CostProbe p;
    storage::AccessStats st = disk->stats();
    p.page_reads = st.page_reads;
    p.page_writes = st.page_writes;
    p.buffer_hits = buffers->hits();
    p.buffer_misses = buffers->misses();
    return p;
  };

  const bool forward = dir == QueryDir::kForward;
  // Out-of-range queries take the navigational path, which rejects them.
  const bool use_asr = asr != nullptr && i < j && j <= path_->n() &&
                       asr->SupportsQuery(i, j);
  obs::TraceContext ctx("query", std::move(probe));
  ctx.RootAttr("q", "Q_{" + std::to_string(i) + "," + std::to_string(j) + "}");
  ctx.RootAttr("dir", forward ? "fwd" : "bwd");
  // The ASR plan is the HopPlan its executor runs, one hop per partition.
  ctx.RootAttr("plan", use_asr ? asr->PlanQuery(dir, i, j).ToString()
                               : "navigational");
  if (use_asr && asr->degraded()) {
    // Quarantined partitions answer by object-base navigation until
    // Repair(); flag the plan so the extra page reads are explicable.
    ctx.RootAttr("degraded", std::to_string(asr->quarantined_count()) +
                                 " partition(s) quarantined");
  }
  // Durability context: which sync policy was active and how many sync
  // requests the plan issued (0 for pure reads — anything else means the
  // query rode on a maintenance or flush path worth explaining).
  ctx.RootAttr("durability",
               storage::DurabilityModeName(disk->options().durability));
  const uint64_t syncs_before = disk->sync_requests();
  Result<std::vector<AsrKey>> keys =
      use_asr ? (forward ? asr->EvalForward(anchor, i, j)
                         : asr->EvalBackward(anchor, i, j))
              : (forward ? ForwardNoSupport(anchor, i, j)
                         : BackwardNoSupport(anchor, i, j));
  ASR_RETURN_IF_ERROR(keys.status());
  ctx.RootAttr("results", std::to_string(keys->size()));
  ctx.RootAttr("sync_requests",
               std::to_string(disk->sync_requests() - syncs_before));

  ExplainResult out;
  out.keys = std::move(*keys);
  out.used_asr = use_asr;
  out.trace = ctx.Finish();
  return out;
}

void QueryEvaluator::ExportMetrics(obs::MetricsRegistry* registry,
                                   const std::string& prefix) const {
  registry->Set(prefix + ".queries.forward", fwd_queries_);
  registry->Set(prefix + ".queries.backward", bwd_queries_);
  registry->SetHistogram(prefix + ".frontier_size", frontier_sizes_);
}

}  // namespace asr
