#include "op_stream.h"

#include <set>
#include <utility>

#include "common/random.h"

namespace asr::perfbench {

namespace {

template <typename T>
const T& PickWeighted(const std::vector<T>& entries, Rng* rng) {
  ASR_CHECK(!entries.empty());
  const double roll = rng->NextDouble();
  double cumulative = 0;
  for (const T& entry : entries) {
    cumulative += entry.weight;
    if (roll < cumulative) return entry;
  }
  return entries.back();
}

}  // namespace

Result<std::vector<Op>> GenerateRing(workload::SyntheticBase* base,
                                     const cost::OperationMix& mix,
                                     double p_up, size_t count,
                                     uint64_t seed) {
  if ((p_up > 0 && mix.updates.empty()) || (p_up < 1 && mix.queries.empty())) {
    return Status::InvalidArgument("mix lacks the operations p_up asks for");
  }
  Rng rng(seed);
  gom::ObjectStore* store = base->store();
  std::vector<Op> ring;
  ring.reserve(count + kOutstandingEdges);
  std::deque<Op> outstanding;
  std::set<std::pair<uint64_t, uint64_t>> live;  // (u, w) of outstanding

  auto removal_of = [&](const Op& insert) {
    Op removal = insert;
    removal.kind = Op::Kind::kRemove;
    live.erase({insert.u.raw(), insert.w.raw()});
    return removal;
  };

  for (size_t n = 0; n < count; ++n) {
    if (!rng.Bernoulli(p_up)) {
      const cost::WeightedQuery& q = PickWeighted(mix.queries, &rng);
      Op op;
      op.dir = q.dir;
      op.i = q.i;
      op.j = q.j;
      const auto& anchors = base->objects_at(
          q.dir == cost::QueryDirection::kForward ? q.i : q.j);
      op.anchor = AsrKey::FromOid(anchors[rng.Uniform(anchors.size())]);
      ring.push_back(op);
      continue;
    }
    if (outstanding.size() >= kOutstandingEdges) {
      ring.push_back(removal_of(outstanding.front()));
      outstanding.pop_front();
      continue;
    }
    const uint32_t p = PickWeighted(mix.updates, &rng).position;
    if (p + 1 > base->n() || !base->path().step(p + 1).set_occurrence) {
      return Status::InvalidArgument("updates need a set-valued attribute");
    }
    const std::string& attr = base->path().step(p + 1).attr_name;
    const auto& owners = base->objects_at(p);
    const auto& members = base->objects_at(p + 1);
    Op op;
    op.kind = Op::Kind::kInsert;
    op.p = p;
    for (;;) {
      op.u = owners[rng.Uniform(owners.size())];
      op.w = AsrKey::FromOid(members[rng.Uniform(members.size())]);
      Result<AsrKey> set = store->GetAttributeByName(op.u, attr);
      if (!set.ok()) return set.status();
      if (set->IsNull()) continue;  // no set instance: ins_p would create one
      if (live.count({op.u.raw(), op.w.raw()}) > 0) continue;
      Result<bool> present = store->SetContains(set->ToOid(), op.w);
      if (!present.ok()) return present.status();
      if (!*present) break;
    }
    live.insert({op.u.raw(), op.w.raw()});
    outstanding.push_back(op);
    ring.push_back(op);
  }
  for (const Op& insert : outstanding) ring.push_back(removal_of(insert));
  return ring;
}

void OutstandingEdges::Applied(const Op& op) {
  if (op.kind == Op::Kind::kInsert) {
    edges_.push_back(op);
  } else if (op.kind == Op::Kind::kRemove) {
    ASR_CHECK(!edges_.empty() && edges_.front().u == op.u &&
              edges_.front().w == op.w);
    edges_.pop_front();
  }
}

std::vector<Op> OutstandingEdges::Drain() {
  std::vector<Op> removals;
  for (Op op : edges_) {
    op.kind = Op::Kind::kRemove;
    removals.push_back(op);
  }
  edges_.clear();
  return removals;
}

}  // namespace asr::perfbench
