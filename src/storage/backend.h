// Storage backends: where page images physically live.
//
// Disk is the paper-facing instrument — it meters accesses, keeps per-page
// checksums, and hosts the fault injector. What it deliberately does NOT fix
// is where the bytes are: the metering in-memory store is the right substrate
// for validating the analytical page-count model, but wall-clock speed needs
// a real file-backed path. StorageBackend is that seam. Everything above it
// (metering, checksums, FaultInjector semantics, Serialize/Deserialize,
// BufferManager, B+ trees) is backend-agnostic, so the crash matrix and the
// full test suite run unchanged against either backend.
//
// Concurrency contract (inherited from Disk): segment registration may run
// concurrently with page access to *existing* segments; each individual
// segment has at most one accessor thread at a time.
#ifndef ASR_STORAGE_BACKEND_H_
#define ASR_STORAGE_BACKEND_H_

#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "storage/page.h"

namespace asr::storage {

enum class BackendKind {
  kMemory,  // metering in-memory page store (the paper's instrument)
  kFile,    // raw-speed file store: pread/pwrite, optional mmap read path
};

const char* BackendKindName(BackendKind kind);

// When (if ever) eviction write-backs are pushed to stable storage. The
// metering default is kOff — no sync traffic, bit-identical page counts to a
// durability-unaware pool. kGroup batches write-backs and issues one
// fdatasync per run of ASR_FLUSH_BATCH pages (per touched segment); kPage
// syncs after every single write-back — the strawman kGroup is measured
// against. Either way FlushAll() ends with a sync, so the durable end state
// at a checkpoint is identical across modes.
enum class DurabilityMode {
  kOff,
  kGroup,
  kPage,
};

const char* DurabilityModeName(DurabilityMode mode);

// How a Disk should store its pages. The default is the in-memory metering
// store; FromEnv() lets a whole process (e.g. the ctest suite under the CI
// file-backend job) be flipped without touching call sites:
//   ASR_STORAGE_BACKEND=memory|file   backend selection
//   ASR_STORAGE_DIR=<path>            file backend directory (default: a
//                                     fresh mkdtemp under $TMPDIR, removed
//                                     when the Disk is destroyed)
//   ASR_STORAGE_MMAP=0|1              file backend read path (default 1)
//   ASR_DURABILITY=off|group|page     eviction write-back sync policy
//   ASR_FLUSH_BATCH=<n>               group-flush run length (default 64)
struct DiskOptions {
  BackendKind backend = BackendKind::kMemory;
  // File backend only: directory for segment files. Empty = create a private
  // temporary directory and remove it (and all segment files) on
  // destruction. A caller-supplied directory is left in place.
  std::string file_dir;
  // File backend only: serve reads from a shared mmap of the segment file
  // instead of pread. Writes always go through pwrite (coherent with the
  // mapping on the same file).
  bool mmap_reads = true;
  // Write-back sync policy, applied by every BufferManager over this disk.
  // Also makes the file backend fsync durably at the structural points
  // (directory entry after segment creation, file metadata after growth).
  DurabilityMode durability = DurabilityMode::kOff;
  // kGroup only: write-backs per fdatasync run (>= 1).
  uint32_t flush_batch = 64;

  static DiskOptions FromEnv();

  static DiskOptions Memory() { return DiskOptions{}; }
  static DiskOptions File(std::string dir = "", bool mmap = true) {
    DiskOptions o;
    o.backend = BackendKind::kFile;
    o.file_dir = std::move(dir);
    o.mmap_reads = mmap;
    return o;
  }
};

// Raw page storage. Segment ids are assigned by Disk, dense from 0, and
// every call uses ids the backend has seen via AddSegment. Bounds and
// metering are Disk's job; backends only move bytes.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  virtual BackendKind kind() const = 0;

  // Registers the next segment id (== number of prior AddSegment calls).
  virtual void AddSegment(const std::string& name) = 0;

  // Appends one zeroed page to `segment`.
  virtual void AddPage(uint32_t segment) = 0;

  // Uncounted raw page I/O; Disk layers counting, checksums, and fault
  // actions on top. Read/Write never see out-of-range pages.
  virtual Status Read(uint32_t segment, uint32_t page_no, Page* out) = 0;
  virtual Status Write(uint32_t segment, uint32_t page_no,
                       const Page& page) = 0;

  // Durability points: everything written to `segment` (resp. every
  // segment) so far is on stable storage when the call returns OK. The
  // memory backend's storage is the process image — already as stable as it
  // gets — so the default is a no-op; the file backend issues fdatasync.
  virtual Status Sync(uint32_t segment) {
    (void)segment;
    return Status::OK();
  }
  virtual Status SyncAll() { return Status::OK(); }

  // True when a permanent write failure demoted the backend to read-only
  // (reads keep working; every write fails fast with the original error).
  virtual bool read_only() const { return false; }

  // Backend-specific counters under `prefix` (e.g. "disk.backend"). Cold
  // path; call from quiescent points.
  virtual void ExportMetrics(obs::MetricsRegistry* registry,
                             const std::string& prefix) const {
    (void)registry;
    (void)prefix;
  }
};

// The metering in-memory store: a vector of pages per segment. Identical
// performance profile to the pre-seam Disk (one memcpy per I/O), so metered
// page counts and the model validation are unchanged.
class MemoryBackend : public StorageBackend {
 public:
  MemoryBackend() = default;
  ASR_DISALLOW_COPY_AND_ASSIGN(MemoryBackend);

  BackendKind kind() const override { return BackendKind::kMemory; }
  void AddSegment(const std::string& name) override;
  void AddPage(uint32_t segment) override;
  Status Read(uint32_t segment, uint32_t page_no, Page* out) override;
  Status Write(uint32_t segment, uint32_t page_no, const Page& page) override;
  void ExportMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix) const override;

 private:
  std::vector<Page>& Pages(uint32_t segment);

  // Guards the deque structure only; per-segment page vectors follow the
  // single-accessor-per-segment contract (deque references are stable).
  mutable std::shared_mutex mu_;
  std::deque<std::vector<Page>> segments_ ASR_GUARDED_BY(mu_);
};

// Creates the backend described by `options`.
std::unique_ptr<StorageBackend> MakeBackend(const DiskOptions& options);

}  // namespace asr::storage

#endif  // ASR_STORAGE_BACKEND_H_
