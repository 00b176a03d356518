// Layer-counter harvest: before/after readings of the counters each layer
// already exposes through its public accessors. The ledger adds no counter
// of its own inside the library; a delta of two readings taken at quiescent
// points (no operation in flight) is what one timed window cost each layer.
#ifndef ASR_PERFBENCH_HARVEST_H_
#define ASR_PERFBENCH_HARVEST_H_

#include <cstdint>

#include "asr/access_support_relation.h"
#include "obs/metrics.h"
#include "storage/mvcc.h"
#include "workload/synthetic_base.h"

namespace asr::perfbench {

// The live system a reading is taken from.
struct Subject {
  workload::SyntheticBase* base = nullptr;
  AccessSupportRelation* asr = nullptr;
  storage::MvccManager* mvcc = nullptr;  // null unless transactional
};

struct LayerCounters {
  // asr: live queries (snapshot queries keep no counters) and their hops.
  uint64_t queries = 0;
  uint64_t hops = 0;
  obs::HistogramSnapshot frontier;
  // btree, summed over both trees of every partition store.
  uint64_t descents = 0;
  uint64_t leaf_touches = 0;
  uint64_t inner_touches = 0;
  uint64_t splits = 0;
  // storage.buffer, summed over the live pools (object base and partition
  // stores); `all_misses` is the process-wide hub mirror, which also counts
  // the pools of snapshot readers.
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t all_misses = 0;
  // storage.disk: counted page accesses and those of B+ tree segments.
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t tree_reads = 0;
  // storage.backend: the hub's seam latencies.
  obs::HistogramSnapshot read_us;
  obs::HistogramSnapshot write_us;
  // storage.mvcc and the ASR claim-retry loop.
  uint64_t commits = 0;
  uint64_t conflicts = 0;
  obs::HistogramSnapshot txn_retries;
  // asr maintenance journal.
  uint64_t journal_committed = 0;
  uint64_t journal_aborted = 0;

  static LayerCounters Read(const Subject& subject);
  // Field-wise difference against an earlier reading of the same subject.
  LayerCounters Since(const LayerCounters& before) const;
};

}  // namespace asr::perfbench

#endif  // ASR_PERFBENCH_HARVEST_H_
