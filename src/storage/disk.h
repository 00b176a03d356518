// Segmented page store with per-segment access metering, per-page checksums,
// and fault injection — over a pluggable storage backend.
//
// The paper has no running system; its evaluation counts secondary page
// accesses analytically. This disk is the executable counterpart: an array of
// 4056-byte pages per segment whose every read/write is counted, so a live
// query can be metered with the same unit the paper uses. Where the page
// bytes physically live is a separate concern (storage/backend.h): the
// default in-memory backend is the metering instrument, while the
// file-backed backend (pread/pwrite, optional mmap reads) measures the same
// workloads at hardware speed. Metering, checksums, fault injection, and
// snapshot serialization all live ABOVE the seam, so they behave identically
// on every backend.
//
// Fault model: an optional FaultInjector observes every counted I/O and can
// drop a write (crash), tear it (half-written sector revealed at restart),
// or fail a read. Independently, the disk keeps a checksum per page —
// updated on every successful write, verified on every read — so torn or
// stomped pages surface as Status::Corruption instead of garbage reaching a
// B+ tree descent. While the injector reports crashed() the verification is
// suspended: the process is "still up" and reads through the OS-cache
// fiction; after Disk::RecoverFromCrash() (the restart point) torn sectors
// become visible and verification resumes.
//
// Concurrency: segments are independent units of allocation and metering.
// The segment table itself is guarded by a shared mutex (segment creation
// may run concurrently with page access to existing segments), but each
// individual segment must have at most one accessor thread at a time — the
// contract the parallel ASR build pipeline satisfies by giving every
// partition builder its own segments. Global access statistics are the merge
// of the per-segment counters, so no cross-thread counter is ever written.
// Fault injection is for single-threaded crash drills; arm it only when no
// concurrent builders run.
#ifndef ASR_STORAGE_DISK_H_
#define ASR_STORAGE_DISK_H_

#include <atomic>
#include <deque>
#include <istream>
#include <memory>
#include <ostream>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "storage/access_stats.h"
#include "storage/backend.h"
#include "storage/fault_injector.h"
#include "storage/page.h"

namespace asr::storage {

class MvccManager;
class PageSnapshot;

class Disk {
 public:
  // The default backend comes from the environment (DiskOptions::FromEnv),
  // so a whole binary — notably the test suite under the CI file-backend
  // job — can be flipped with ASR_STORAGE_BACKEND=file.
  Disk() : Disk(DiskOptions::FromEnv()) {}
  explicit Disk(const DiskOptions& options);
  ASR_DISALLOW_COPY_AND_ASSIGN(Disk);

  BackendKind backend_kind() const { return backend_->kind(); }
  const char* backend_name() const {
    return BackendKindName(backend_->kind());
  }
  // The options this disk was built with — the BufferManager reads its
  // write-back sync policy (durability mode, flush batch) from here so that
  // policy travels with the disk instead of with every pool constructor.
  const DiskOptions& options() const { return options_; }
  // The raw backend (borrowed). Tests and degradation drills reach through
  // for backend-specific state (e.g. FileBackend::EnterReadOnly).
  StorageBackend* backend() { return backend_.get(); }

  // Creates an empty segment and returns its id. `name` is for diagnostics.
  uint32_t CreateSegment(std::string name);

  // Appends a zeroed page to `segment`; does not count as an access (the
  // model charges allocation when the page is first written).
  PageId AllocatePage(uint32_t segment);

  // Counted accesses. ReadPage fails with Corruption when the page's
  // checksum does not match (torn or stomped page) and with IOError on an
  // injected read fault; WritePage fails with IOError when the armed
  // injector drops or tears the write. On failure `*out` is unspecified.
  Status ReadPage(PageId id, Page* out);
  Status WritePage(PageId id, const Page& page);

  // Attaches a page-version manager (borrowed; nullptr detaches). With a
  // manager attached, reads and writes to its registered segments route
  // through the MVCC layer: a thread with an active PageTransaction stages
  // covered writes privately and reads them back, direct writes to
  // registered segments are auto-versioned, and snapshot handles read a
  // pinned epoch via ReadPageSnapshot. Unregistered segments — and every
  // disk without a manager — take the legacy path, byte-identical in
  // behavior and metering.
  void AttachMvcc(MvccManager* mvcc);
  MvccManager* mvcc() { return mvcc_; }

  // The image of `id` as of snap.epoch(); requires an attached manager and
  // a registered segment. Counted as a page read like any query access.
  Status ReadPageSnapshot(PageId id, const PageSnapshot& snap, Page* out);

  // Durability points, forwarded to the backend (no-op on the memory
  // backend). Uncounted in AccessStats — the page-count model has no fsync
  // term — but tallied in sync_requests() and the metrics export so the
  // bench can report the fsync currency alongside page counts.
  Status SyncSegment(uint32_t segment);
  Status SyncAll();
  uint64_t sync_requests() const {
    return sync_requests_.load(std::memory_order_relaxed);
  }

  // Checksum triage (counted as reads — recovery pays for its verification
  // pass in the same unit as everything else). VerifySegment returns the
  // first corrupt page as Corruption.
  Status VerifyPage(PageId id);
  Status VerifySegment(uint32_t segment);

  // Installs `injector` as the fault policy for every subsequent I/O
  // (nullptr detaches). The injector is borrowed, not owned.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() { return injector_; }

  // The restart point after a simulated crash: reveals the torn sector of a
  // fired kTornWrite (until here reads served the fully-written image — the
  // OS page cache fiction), re-enables checksum verification, and disarms
  // the injector. No-op without an injector or without a crash.
  void RecoverFromCrash();

  uint32_t SegmentPageCount(uint32_t segment) const;
  const std::string& SegmentName(uint32_t segment) const;
  size_t segment_count() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return segments_.size();
  }

  // Snapshot support: raw segment/page image (access statistics are not
  // persisted; checksums are recomputed on load). Deserialize requires an
  // empty disk and leaves it empty when the stream is truncated or corrupt.
  // The snapshot format is backend-independent: a snapshot written on one
  // backend loads on any other.
  void Serialize(std::ostream* out) const;
  Status Deserialize(std::istream* in);

  // Disk-wide statistics: the merge of every segment's counters. (Computed
  // on demand so that concurrent builders only ever touch their own
  // segment's counters; call from a quiescent point when workers may run.)
  AccessStats stats() const;
  const AccessStats& segment_stats(uint32_t segment) const;
  void ResetStats();

  // Pushes disk-wide and per-segment page-access counters into `registry`
  // under `prefix` (e.g. "disk.segment.<name>.reads"), plus the backend's
  // own counters under `prefix + ".backend"`. Cold path; call from a
  // quiescent point, like stats().
  void ExportMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix) const;

 private:
  friend class MvccManager;

  // The pre-MVCC read/write paths: counted, checksummed, fault-injected.
  // The public ReadPage/WritePage delegate here after (possibly) routing
  // through the attached manager; the manager calls back in under its own
  // lock for snapshot reads and commit write-through.
  Status ReadPageUnversioned(PageId id, Page* out);
  Status WritePageUnversioned(PageId id, const Page& page);
  // Uncounted, unverified backend read — version-retention bookkeeping.
  Status ReadPageRaw(PageId id, Page* out);
  // Meters a snapshot read served from a retained in-memory image.
  void CountSnapshotRead(PageId id);

  // Per-segment bookkeeping above the seam; page bytes live in backend_.
  struct Segment {
    std::string name;
    // checksums[i] covers page i; maintained on every successful write. The
    // vector's size is also the segment's logical page count.
    std::vector<uint64_t> checksums;
    AccessStats stats;
  };

  struct TornPage {
    PageId id;
    Page image;  // half-new half-old bytes, installed at RecoverFromCrash
  };

  // References into segments_ are stable (deque) — the lock only covers the
  // table lookup, never the page I/O.
  Segment& GetSegment(uint32_t segment);
  const Segment& GetSegment(uint32_t segment) const;

  mutable std::shared_mutex mu_;  // guards the segment table structure
  std::deque<Segment> segments_ ASR_GUARDED_BY(mu_);
  DiskOptions options_;
  std::unique_ptr<StorageBackend> backend_;
  FaultInjector* injector_ = nullptr;
  MvccManager* mvcc_ = nullptr;  // borrowed; see AttachMvcc
  std::vector<TornPage> pending_torn_ ASR_GUARDED_BY(mu_);
  // Relaxed atomic: sync requests can arrive from several pools (each
  // partition builder owns one) while metering stays per-segment.
  std::atomic<uint64_t> sync_requests_{0};
};

}  // namespace asr::storage

#endif  // ASR_STORAGE_DISK_H_
