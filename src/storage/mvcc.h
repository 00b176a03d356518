// Page-level multi-version concurrency control over the Disk.
//
// The paper's cost model assumes queries and ASR maintenance take turns; a
// base serving many users cannot. This layer adds the minimum machinery for
// readers and writers to overlap without locks on the page path, following
// the per-page-version design of the oidadb spec (SNIPPETS.md): a version
// table mapping PageId to the epoch of its last committed image, snapshot
// handles that pin an epoch and read a consistent past state, and an
// optimistic writer transaction that stages private page images and detects
// conflicts at commit as "any staged page whose committed version moved past
// my checkout epoch" (first committer wins; the loser aborts cleanly with
// the conflict list). ASR writers never lose that check to each other: they
// take turns on their partition claims, so it guards raw PageTransaction
// users.
//
// Scope: only segments registered with the manager (the ASR tree segments)
// are versioned. Everything else — and everything on a disk with no manager
// attached — takes the exact legacy path, including its metering, so the
// paper-facing page counts of single-writer runs are bit-identical.
//
// Retention is copy-on-write at commit time: when a new version of a page is
// about to replace an image some live snapshot still needs, the old image is
// retained in memory keyed by its version and garbage-collected when the
// last snapshot inside its validity window is released. The version table
// itself is volatile — epochs restart at zero after a crash, which is sound
// because snapshots and in-flight transactions do not survive the process,
// and committed transactions are re-derivable from the MaintenanceJournal.
//
// Lock order: mvcc mutex before the disk's segment-table mutex, never the
// reverse. Live (non-snapshot) reads of registered segments take the shared
// side of the version-table mutex — enough to exclude a commit rewriting the
// backend image mid-read while keeping readers concurrent with each other;
// logical writer isolation for them is still the ASR store-claim protocol.
// Snapshot reads and all registered-segment writes serialize here too.
#ifndef ASR_STORAGE_MVCC_H_
#define ASR_STORAGE_MVCC_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "storage/page.h"

namespace asr::storage {

class Disk;
class MvccManager;
class WriteAheadLog;

// Monotonic commit counter. Epoch 0 is "before every commit": a page absent
// from the version table has version 0 and its backend image is valid for
// every snapshot.
using MvccEpoch = uint64_t;

// Named lock handles for the two sides of the version-table mutex. Aliases
// rather than raw std::unique_lock/shared_lock at the call sites so the
// lock-discipline analyzer (and a human reader) can tell a commit-side
// exclusive section from a snapshot-side shared one.
using TxnCommitLock = std::unique_lock<std::shared_mutex>;
using SnapshotReadLock = std::shared_lock<std::shared_mutex>;

// A reader's checkout of one consistent page-version epoch. While the handle
// is live, every registered page's image as of epoch() stays readable via
// Disk::ReadPageSnapshot — commits that overwrite such a page first retain
// the old image. Movable, not copyable; releasing (or destroying) the handle
// lets the retained images it pinned be collected.
class PageSnapshot {
 public:
  PageSnapshot() = default;
  PageSnapshot(PageSnapshot&& other) noexcept { *this = std::move(other); }
  PageSnapshot& operator=(PageSnapshot&& other) noexcept;
  ~PageSnapshot() { Release(); }
  ASR_DISALLOW_COPY_AND_ASSIGN(PageSnapshot);

  bool valid() const { return mvcc_ != nullptr; }
  MvccEpoch epoch() const { return epoch_; }
  void Release();

 private:
  friend class MvccManager;
  PageSnapshot(MvccManager* mvcc, MvccEpoch epoch)
      : mvcc_(mvcc), epoch_(epoch) {}

  MvccManager* mvcc_ = nullptr;
  MvccEpoch epoch_ = 0;
};

// An optimistic writer transaction over a set of registered segments. While
// active, the constructing thread's Disk::WritePage calls to covered
// segments stage private images here instead of reaching the backend, and
// its ReadPage calls see those staged images first (read-your-writes). The
// binding is thread-local: exactly one active transaction per thread, and
// the transaction must be committed or aborted on the thread that opened it.
//
// Commit validates every staged page against the checkout epoch, writes the
// survivors through to the backend under the commit lock (one counted page
// write per distinct staged page — write combining is part of the design,
// not a metering leak), and advances the committed epoch. On conflict
// nothing is applied and the staged set is discarded; the caller may retry
// against the new epoch.
class PageTransaction {
 public:
  PageTransaction(MvccManager* mvcc, std::vector<uint32_t> segments);
  ~PageTransaction();
  ASR_DISALLOW_COPY_AND_ASSIGN(PageTransaction);

  // Returns OK and makes every staged page durable-visible at a single new
  // epoch, or Aborted with the conflicting pages in `*conflicts` (when non
  // null) and no effect. IOError from the backend also leaves the
  // transaction inactive; the journal intent stays unresolved for Recover().
  Status Commit(std::vector<PageId>* conflicts = nullptr);
  // Discards the staged set. Idempotent; also implied by the destructor.
  void Abort();

  bool active() const { return active_; }
  MvccEpoch checkout_epoch() const { return checkout_; }
  size_t staged_page_count() const { return staged_.size(); }
  bool covers(uint32_t segment) const;

 private:
  friend class MvccManager;

  MvccManager* mvcc_;
  std::vector<uint32_t> segments_;
  MvccEpoch checkout_ = 0;
  // Private page images, visible only to the owning thread until commit.
  std::unordered_map<PageId, Page> staged_;
  bool active_ = false;
};

// The version table and snapshot/transaction registry for one Disk. Attach
// with Disk::AttachMvcc; the manager is borrowed by the disk and must
// outlive it. All public methods are thread-safe.
class MvccManager {
 public:
  MvccManager() = default;
  ASR_DISALLOW_COPY_AND_ASSIGN(MvccManager);

  // Marks `segment` as version-managed: its direct writes are auto-versioned
  // (each write commits a single-page epoch), its pages become snapshot
  // readable, and transactions may cover it. Idempotent.
  void RegisterSegment(uint32_t segment);
  bool IsRegistered(uint32_t segment) const;

  // Optional: commits append an 'X' marker record (epoch, page count) to
  // this WAL, unsynced — it rides on the next journal commit sync. Foreign
  // to the journal's own replay (size-checked), it exists for audit tools.
  void AttachWal(WriteAheadLog* wal);

  // Checks out the current committed epoch for reading.
  PageSnapshot BeginSnapshot();
  MvccEpoch committed_epoch() const;
  size_t live_snapshots() const;
  size_t retained_pages() const;

  // The transaction bound to the calling thread, if any.
  static PageTransaction* CurrentTransaction();

  // Counters for the obs surface. commits/conflicts also mirror into
  // LiveTelemetry as txn.commits / txn.conflicts.
  const obs::SharedCounter& commits() const { return commits_; }
  const obs::SharedCounter& conflicts() const { return conflicts_; }

  void ExportMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix) const;

 private:
  friend class Disk;
  friend class PageSnapshot;
  friend class PageTransaction;

  struct PageVersions {
    // Epoch of the image currently in the backend (0 = pre-MVCC image).
    MvccEpoch current = 0;
    // Old images still needed by live snapshots. retained[v] is valid for
    // snapshot epochs in [v, next retained version or `current`).
    std::map<MvccEpoch, Page> retained;
  };

  // --- Disk hooks (called with no mvcc lock held) --------------------------
  // Serves `id` from the calling thread's active transaction. Returns false
  // (out untouched) when there is no binding or no staged image.
  bool TryReadStaged(PageId id, Page* out) const;
  // Routes a write: stages it in the calling thread's transaction, or
  // applies it as an auto-versioned direct write when the segment is
  // registered. Returns false when the write is not mvcc-managed, in which
  // case the disk takes its legacy path.
  bool RouteWrite(Disk* disk, PageId id, const Page& page, Status* result);
  // Routes a live read of a registered segment under the shared side of the
  // version-table mutex, so it cannot observe a commit half-way through
  // rewriting the backend image. Returns false (out untouched) when the
  // segment is not registered, in which case the disk takes its legacy path.
  bool RouteRead(Disk* disk, PageId id, Page* out, Status* result);
  // Exclusive lock for registered-segment page allocation (checksum-vector
  // growth must not race snapshot readers). Empty when not registered.
  TxnCommitLock LockForAllocate(uint32_t segment);
  // Snapshot read: the image of `id` as of snap.epoch(). Counted as a page
  // read on the owning segment, like any other query access.
  Status ReadSnapshotPage(Disk* disk, PageId id, const PageSnapshot& snap,
                          Page* out);

  // --- internals -----------------------------------------------------------
  void ReleaseSnapshot(MvccEpoch epoch);
  Status CommitTransaction(PageTransaction* txn, std::vector<PageId>* conflicts)
      ASR_EXCLUDES(mu_);
  void AbortTransaction(PageTransaction* txn);
  // Retains the backend image of `id` (currently at version `current`) when
  // some live snapshot still needs it.
  void RetainIfNeeded(Disk* disk, PageId id, PageVersions* versions)
      ASR_REQUIRES(mu_);
  void UpdateSnapshotAge() ASR_REQUIRES(mu_);
  void CollectRetained() ASR_REQUIRES(mu_);

  mutable std::shared_mutex mu_;
  std::unordered_set<uint32_t> registered_ ASR_GUARDED_BY(mu_);
  std::unordered_map<PageId, PageVersions> pages_ ASR_GUARDED_BY(mu_);
  // Live snapshot epochs (multiset: several readers may share an epoch).
  std::multiset<MvccEpoch> snapshots_ ASR_GUARDED_BY(mu_);
  MvccEpoch epoch_ ASR_GUARDED_BY(mu_) = 0;
  WriteAheadLog* wal_ ASR_GUARDED_BY(mu_) = nullptr;
  Disk* disk_ = nullptr;  // set by Disk::AttachMvcc before first use

  obs::SharedCounter commits_;
  obs::SharedCounter conflicts_;
  obs::SharedCounter direct_versioned_writes_;
  obs::SharedCounter snapshot_reads_;
  obs::SharedCounter retained_copies_;
  obs::SharedHistogram commit_pages_;
};

}  // namespace asr::storage

#endif  // ASR_STORAGE_MVCC_H_
