// Transactional edge maintenance: the multi-writer counterpart of the
// journal-enveloped single-writer path in maintenance.cc.
//
// One operation = claim the partition stores it spans, run the ordinary
// ins_i/del_i implementation with every tree write staged in a
// storage::PageTransaction, flush the staged pages and commit them as one
// epoch. Two rollback mechanisms pair up when the flush or the commit
// fails: staged page images are dropped and each tree's Meta is restored
// (the physical side), and the undo log reverses the in-memory
// full_rows_/refcount edits (the logical side).
//
// The partition claim is the ASR's one writer control: writers over
// disjoint partition stores never contend, and writers sharing a store take
// turns on its claim, so the storage layer's first-committer-wins check
// cannot lose to another claimed writer. Deadlock freedom rests on one
// rule, kept by ClaimStores() for every claimer (edge operations, snapshot
// capture, Rebuild): claims are taken blocking in one global address order,
// and a claimer holds no other claim while it waits.

#include <algorithm>
#include <mutex>
#include <vector>

#include "asr/access_support_relation.h"
#include "btree/btree.h"
#include "obs/span.h"
#include "storage/mvcc.h"

namespace asr {

storage::MvccManager* AccessSupportRelation::mvcc() const {
  return store_->buffers()->disk()->mvcc();
}

std::vector<PartitionStore*> AccessSupportRelation::DistinctStores() const {
  std::vector<PartitionStore*> stores;
  stores.reserve(partitions_.size());
  for (const Partition& part : partitions_) {
    stores.push_back(part.store.get());
  }
  std::sort(stores.begin(), stores.end());
  stores.erase(std::unique(stores.begin(), stores.end()), stores.end());
  return stores;
}

std::vector<std::unique_lock<std::mutex>> AccessSupportRelation::ClaimStores()
    const {
  std::vector<std::unique_lock<std::mutex>> claims;
  for (PartitionStore* ps : DistinctStores()) {
    claims.emplace_back(ps->claim_mu);
  }
  return claims;
}

Status AccessSupportRelation::RegisterTreeSegments() {
  storage::MvccManager* manager = mvcc();
  if (manager == nullptr) {
    return Status::NotSupported(
        "AsrOptions::transactional requires an MvccManager on the disk "
        "(Database::EnableMvcc)");
  }
  for (PartitionStore* ps : DistinctStores()) {
    // Push every buffered build/rebuild page to the backend first: once the
    // segment is registered, snapshot readers resolve its pages from the
    // backend image, which must therefore be complete at registration.
    ASR_RETURN_IF_ERROR(ps->buffers->FlushAll());
  }
  for (const Partition& part : partitions_) {
    manager->RegisterSegment(part.store->forward->segment());
    manager->RegisterSegment(part.store->backward->segment());
  }
  return Status::OK();
}

Status AccessSupportRelation::RunEdgeTxn(MaintOp op, Oid u, uint32_t p,
                                         AsrKey w) {
  if (mvcc() == nullptr) {
    return Status::NotSupported(
        "AsrOptions::transactional requires an MvccManager on the disk "
        "(Database::EnableMvcc)");
  }
  obs::ScopedSpan span(op == MaintOp::kEdgeInsert ? "ins_i_txn" : "del_i_txn");
  const uint64_t seq = journal_.BeginEdge(op, u, p, w);
  // Every edge operation may touch every partition (fragments span the whole
  // path), so claim all distinct stores.
  std::vector<std::unique_lock<std::mutex>> claims = ClaimStores();
  std::vector<PartitionStore*> stores = DistinctStores();

  // Physical rollback points: each tree's in-memory state now, paired with
  // the discard of its staged pages.
  struct TreeMark {
    PartitionStore* store;
    btree::BTree::Meta fwd;
    btree::BTree::Meta bwd;
  };
  std::vector<TreeMark> marks;
  marks.reserve(stores.size());
  std::vector<uint32_t> segments;
  segments.reserve(stores.size() * 2);
  for (PartitionStore* ps : stores) {
    marks.push_back({ps, ps->forward->meta(), ps->backward->meta()});
    segments.push_back(ps->forward->segment());
    segments.push_back(ps->backward->segment());
  }

  undo_log_.clear();
  undo_active_ = true;
  Status st;
  {
    storage::PageTransaction txn(mvcc(), std::move(segments));
    st = op == MaintOp::kEdgeInsert ? OnEdgeInsertedImpl(u, p, w)
                                    : OnEdgeRemovedImpl(u, p, w);
    if (st.ok()) {
      // Push every dirty tree page into the transaction's staged set (the
      // pools write through Disk::WritePage, which routes to the thread's
      // transaction), then commit them as one epoch.
      for (PartitionStore* ps : stores) {
        Status flushed = ps->buffers->FlushAll();
        if (!flushed.ok()) st = flushed;
      }
      if (st.ok()) st = txn.Commit();
    }
    if (!st.ok()) {
      txn.Abort();
      for (const TreeMark& mark : marks) {
        // The pools may cache staged images that never committed; they are
        // not valid reads after the abort.
        mark.store->buffers->DropAll();
        mark.store->forward->RestoreMeta(mark.fwd);
        mark.store->backward->RestoreMeta(mark.bwd);
      }
      for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
        (*it)();
      }
    }
  }
  undo_active_ = false;
  undo_log_.clear();
  claims.clear();  // released before the journal commit

  if (st.IsAborted()) {
    // A commit-time conflict: a raw PageTransaction outside the claims
    // committed one of these pages first. The rollback left the disk
    // untouched, so the intent resolves with no recovery debt; the caller
    // decides whether to re-issue the operation.
    journal_.MarkAborted(seq);
    return st;
  }
  return CloseJournalEntry(seq, st, "transactional maintenance");
}

}  // namespace asr
