// Consistent-epoch ASR readers: query a transactional ASR while maintenance
// is mid-flight, without locks on the query path.
//
// An AsrSnapshot is the ASR-level face of a storage::PageSnapshot: capture
// pins the current committed page-version epoch and copies each partition
// tree's in-memory Meta; queries then run the ASR's one hop executor over
// trees attached to a read-only snapshot-mode buffer pool, so every page
// resolves to its image as of the pinned epoch — retained old versions where
// a later commit has since overwritten the backend. Writers never block the
// reader and the reader never blocks writers; the copy-on-write retention in
// storage/mvcc.h is the isolation mechanism.
//
// The alternative — evaluating queries against the live trees concurrently
// with maintenance — is unsound regardless of page versioning: a writer
// mutates the live BTree objects' in-memory state (root, height, counts)
// mid-descent. Snapshots sidestep that by attaching private BTree instances
// to the captured Metas.
//
// Capture takes every partition claim briefly (blocking, address order), so
// a snapshot never lands in the middle of an edge operation or rebuild:
// what it sees is exactly a committed prefix of the maintenance history.
#ifndef ASR_ASR_SNAPSHOT_H_
#define ASR_ASR_SNAPSHOT_H_

#include <memory>
#include <vector>

#include "btree/btree.h"
#include "common/asr_key.h"
#include "common/status.h"
#include "storage/buffer_manager.h"
#include "storage/mvcc.h"

namespace asr {

class AccessSupportRelation;

class AsrSnapshot {
 public:
  ASR_DISALLOW_COPY_AND_ASSIGN(AsrSnapshot);

  // The committed epoch this snapshot reads at.
  storage::MvccEpoch epoch() const { return snap_.epoch(); }

  // Supported queries against the captured state: the live ASR's hop
  // executor over the pinned trees, so same contract, same answers as the
  // live EvalForward/EvalBackward at capture time, and the same hop spans.
  // Minus the degraded-navigation path (capture requires a non-degraded
  // ASR) and the live counters. The source ASR must outlive the snapshot.
  Result<std::vector<AsrKey>> EvalForward(AsrKey start, uint32_t i,
                                          uint32_t j);
  Result<std::vector<AsrKey>> EvalBackward(AsrKey target, uint32_t i,
                                           uint32_t j);

 private:
  friend class AccessSupportRelation;

  // One partition's two trees, attached to the captured Metas.
  struct PinnedTrees {
    std::unique_ptr<btree::BTree> forward;
    std::unique_ptr<btree::BTree> backward;
  };

  explicit AsrSnapshot(AccessSupportRelation* asr) : asr_(asr) {}

  // Queries run the source ASR's executor, which reads only its
  // immutable-after-Build state (path, kind, decomposition, partition
  // boundaries and store names) when handed a snapshot; everything that
  // mutates is captured below.
  AccessSupportRelation* asr_;
  // Declaration order is the teardown contract reversed: trees_ pin through
  // pool_, and pool_ reads through snap_.
  storage::PageSnapshot snap_;
  std::unique_ptr<storage::BufferManager> pool_;
  std::vector<PinnedTrees> trees_;  // indexed by partition
};

}  // namespace asr

#endif  // ASR_ASR_SNAPSHOT_H_
