// Compiled supported-query plans (§5.6, Eqs. 33-34).
//
// A supported query Q_{i,j} runs as one chain of partition hops over the
// decomposition (Def. 3.8): a cluster lookup where the hop's entry column is
// a partition boundary, and a scan of every page of the covering partition
// (the ap term) where it is interior. The chain depends only on the
// decomposition, the two query columns and the direction, so it is compiled
// once per query into a HopPlan. AccessSupportRelation's one hop executor
// runs the plan over live or snapshot trees, and EXPLAIN prints it.
#ifndef ASR_ASR_HOP_PLAN_H_
#define ASR_ASR_HOP_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "asr/decomposition.h"

namespace asr {

// Direction of a path query Q_{i,j}.
enum class QueryDir { kForward, kBackward };

// One partition hop, from the frontier's column to the next one.
struct Hop {
  size_t partition = 0;
  // Lookups probe the tree clustered on the entry column: the backward tree
  // (clustered on the partition's last column) for backward lookups, the
  // forward tree otherwise. Scans read the forward tree.
  bool backward_tree = false;
  // Entry column interior to the partition: every page is inspected.
  bool scan = false;
  uint32_t from_col = 0;
  uint32_t to_col = 0;
};

struct HopPlan {
  std::vector<Hop> hops;

  // The hops of Q_{i,j} in `dir` between absolute relation columns
  // ci < cj: forward from ci to cj, backward from cj to ci.
  static HopPlan Compile(const Decomposition& dec, QueryDir dir, uint32_t ci,
                         uint32_t cj);

  // "lookup p0.fwd 0->2; lookup p1.fwd 2->3"
  std::string ToString() const;
};

}  // namespace asr

#endif  // ASR_ASR_HOP_PLAN_H_
