#include "asr/snapshot.h"

#include <mutex>
#include <utility>

#include "asr/access_support_relation.h"
#include "storage/mvcc.h"

namespace asr {

Result<std::unique_ptr<AsrSnapshot>> AccessSupportRelation::OpenSnapshot() {
  if (!options_.transactional) {
    return Status::NotSupported(
        "OpenSnapshot requires AsrOptions::transactional");
  }
  storage::MvccManager* manager = mvcc();
  if (manager == nullptr) {
    return Status::NotSupported(
        "OpenSnapshot requires an MvccManager on the disk "
        "(Database::EnableMvcc)");
  }
  if (degraded()) {
    // Quarantined trees are untrusted on disk; a snapshot of them would
    // faithfully preserve garbage. Repair() first.
    return Status::NotSupported(
        "cannot snapshot a degraded ASR; run Repair() first");
  }
  // Claims fence the capture against in-flight writers: the epoch and the
  // tree Metas are taken at an operation boundary, together.
  std::vector<std::unique_lock<std::mutex>> claims = ClaimStores();
  for (PartitionStore* ps : DistinctStores()) {
    // Committed transactions already wrote through; this sweeps any
    // remaining buffered page (e.g. build leftovers) to the backend so the
    // pinned epoch covers the full tree images.
    ASR_RETURN_IF_ERROR(ps->buffers->FlushAll());
  }
  std::unique_ptr<AsrSnapshot> snapshot(new AsrSnapshot(this));
  snapshot->snap_ = manager->BeginSnapshot();
  snapshot->pool_ = std::make_unique<storage::BufferManager>(
      store_->buffers()->disk(), store_->buffers()->capacity(),
      &snapshot->snap_);
  snapshot->trees_.reserve(partitions_.size());
  for (const Partition& part : partitions_) {
    AsrSnapshot::PinnedTrees trees;
    trees.forward = std::make_unique<btree::BTree>(
        snapshot->pool_.get(), part.store->forward->meta());
    trees.backward = std::make_unique<btree::BTree>(
        snapshot->pool_.get(), part.store->backward->meta());
    snapshot->trees_.push_back(std::move(trees));
  }
  return snapshot;
}

Result<std::vector<AsrKey>> AsrSnapshot::EvalForward(AsrKey start, uint32_t i,
                                                     uint32_t j) {
  return asr_->RunPlan(QueryDir::kForward, start, i, j, this);
}

Result<std::vector<AsrKey>> AsrSnapshot::EvalBackward(AsrKey target,
                                                      uint32_t i, uint32_t j) {
  return asr_->RunPlan(QueryDir::kBackward, target, i, j, this);
}

}  // namespace asr
