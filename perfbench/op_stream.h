// Seeded, stationary operation streams for the ledger workloads.
//
// The ledger hands the system only operations it drew itself from its seed
// argument: queries Q_{i,j} with a uniformly drawn anchor, and ins_p/del_p
// edge updates on set-valued attributes. MixDriver's updates toggle random
// edges and mostly insert, so a long run keeps growing the base; here every
// inserted edge is removed again later in the same ring (first in, first
// out, at most kOutstandingEdges live at once) and the ring ends with none
// outstanding. Replaying a ring any number of times therefore leaves the
// object base and the ASR where they started.
#ifndef ASR_PERFBENCH_OP_STREAM_H_
#define ASR_PERFBENCH_OP_STREAM_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/asr_key.h"
#include "common/oid.h"
#include "common/status.h"
#include "cost/opmix.h"
#include "workload/synthetic_base.h"

namespace asr::perfbench {

struct Op {
  enum class Kind : uint8_t { kQuery, kInsert, kRemove };
  Kind kind = Kind::kQuery;
  // Query Q_{i,j}: `anchor` is the start (forward) or target (backward).
  cost::QueryDirection dir = cost::QueryDirection::kForward;
  uint32_t i = 0;
  uint32_t j = 0;
  AsrKey anchor;
  // Update: edge u.A_{p+1} -> w, with u at path position p.
  Oid u;
  uint32_t p = 0;
  AsrKey w;

  bool is_query() const { return kind == Kind::kQuery; }
};

// Edges inserted but not yet removed, at most, at any point of a ring.
inline constexpr size_t kOutstandingEdges = 16;

// Draws `count` operations from `mix` (an update with probability `p_up`,
// else a query; entries picked by weight), then appends the removals of the
// edges still outstanding. Inserted edges are checked against `base` so each
// one is new: its owner has a set-valued attribute and the member is absent.
// Reads the object base (through its buffer pool) but never writes it.
Result<std::vector<Op>> GenerateRing(workload::SyntheticBase* base,
                                     const cost::OperationMix& mix,
                                     double p_up, size_t count,
                                     uint64_t seed);

// Inserted edges a partial replay of a ring left behind, in ring order. The
// executor records each applied insert and retires each applied removal;
// Drain() yields the removals that return the base to its start state.
class OutstandingEdges {
 public:
  void Applied(const Op& op);
  std::vector<Op> Drain();

 private:
  std::deque<Op> edges_;
};

}  // namespace asr::perfbench

#endif  // ASR_PERFBENCH_OP_STREAM_H_
