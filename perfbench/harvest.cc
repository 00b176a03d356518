#include "harvest.h"

#include <set>
#include <string>

#include "obs/latency.h"

namespace asr::perfbench {

LayerCounters LayerCounters::Read(const Subject& subject) {
  LayerCounters c;
  AccessSupportRelation* asr = subject.asr;
  storage::Disk* disk = subject.base->disk();

  obs::MetricsRegistry registry;
  asr->ExportMetrics(&registry, "asr");
  c.queries = registry.counter("asr.queries.forward") +
              registry.counter("asr.queries.backward");
  c.hops = registry.counter("asr.hops.lookup") +
           registry.counter("asr.hops.scan");
  c.frontier = registry.histogram("asr.frontier_size");

  std::set<PartitionStore*> stores;
  std::set<storage::BufferManager*> pools{subject.base->buffers()};
  for (size_t p = 0; p < asr->partition_count(); ++p) {
    PartitionStore* store = asr->partition_store(p).get();
    if (!stores.insert(store).second) continue;
    pools.insert(store->buffers);
    for (const btree::BTree* tree :
         {store->forward.get(), store->backward.get()}) {
      c.descents += tree->descents();
      c.leaf_touches += tree->leaf_touches();
      c.inner_touches += tree->inner_touches();
      c.splits += tree->splits();
    }
  }
  for (const storage::BufferManager* pool : pools) {
    c.hits += pool->hits();
    c.misses += pool->misses();
    c.evictions += pool->evictions();
    c.writebacks += pool->writebacks();
  }

  const storage::AccessStats totals = disk->stats();
  c.reads = totals.reads();
  c.writes = totals.writes();
  for (uint32_t s = 0; s < disk->segment_count(); ++s) {
    if (disk->SegmentName(s).rfind("btree:", 0) == 0) {
      c.tree_reads += disk->segment_stats(s).reads();
    }
  }

  const obs::LiveTelemetry& hub = obs::LiveTelemetry::Instance();
  c.all_misses = hub.buffer_misses.value();
  c.read_us = hub.storage_read_us.snapshot();
  c.write_us = hub.storage_write_us.snapshot();
  c.txn_retries = hub.txn_retries.snapshot();

  if (subject.mvcc != nullptr) {
    c.commits = subject.mvcc->commits().value();
    c.conflicts = subject.mvcc->conflicts().value();
  }
  c.journal_committed = asr->journal().committed();
  c.journal_aborted = asr->journal().aborted();
  return c;
}

LayerCounters LayerCounters::Since(const LayerCounters& before) const {
  LayerCounters d = *this;
  d.queries -= before.queries;
  d.hops -= before.hops;
  d.frontier = frontier.DeltaSince(before.frontier);
  d.descents -= before.descents;
  d.leaf_touches -= before.leaf_touches;
  d.inner_touches -= before.inner_touches;
  d.splits -= before.splits;
  d.hits -= before.hits;
  d.misses -= before.misses;
  d.evictions -= before.evictions;
  d.writebacks -= before.writebacks;
  d.all_misses -= before.all_misses;
  d.reads -= before.reads;
  d.writes -= before.writes;
  d.tree_reads -= before.tree_reads;
  d.read_us = read_us.DeltaSince(before.read_us);
  d.write_us = write_us.DeltaSince(before.write_us);
  d.commits -= before.commits;
  d.conflicts -= before.conflicts;
  d.txn_retries = txn_retries.DeltaSince(before.txn_retries);
  d.journal_committed -= before.journal_committed;
  d.journal_aborted -= before.journal_aborted;
  return d;
}

}  // namespace asr::perfbench
