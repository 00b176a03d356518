// Raw-speed file-backed page store: one file per segment, pread/pwrite,
// optional mmap read path.
//
// This is the wall-clock substrate the ROADMAP's "as fast as the hardware
// allows" goal needs: pages live in real files (one per segment, pages at
// offset page_no * kPageSize), writes go through pwrite, and reads are
// served either by pread or — when DiskOptions::mmap_reads is set — by a
// MAP_SHARED mapping of the segment file, which turns a steady-state read
// into a single memcpy out of the OS page cache. Files are grown in chunks
// (ftruncate doubling) so page allocation is not a syscall per page, and the
// mapping is re-established only when the file capacity actually grows.
//
// Durability: Sync(segment)/SyncAll() issue fdatasync — the durability
// points the BufferManager's flush policy and the checkpoint path call.
// When constructed durable (DiskOptions::durability != kOff) the backend
// also fsyncs the storage directory after creating a segment file (the
// directory entry must survive the crash for the file to be findable) and
// fdatasyncs after ftruncate growth (the new size is metadata the next
// pread depends on). In the default non-durable configuration no sync is
// ever issued and the backend behaves exactly like the pre-durability one.
//
// Hardening: all transfers go through the io_retry loops (EINTR retry,
// short-transfer continuation, bounded transient backoff), a failed
// mmap/remap falls back to pread reads for that segment instead of
// aborting, and the first permanent write failure demotes the whole backend
// to read-only — reads keep being served, every later write fails fast with
// the original error, and the layers above degrade (maintenance marks the
// op lost, recovery quarantines the partition, queries navigate).
//
// Concurrency: same contract as every backend — segment creation may run
// concurrently with access to existing segments (the table is guarded, the
// deque gives stable references), and each segment has one accessor thread
// at a time, which also serializes growth/remap of that segment's file.
#ifndef ASR_STORAGE_FILE_BACKEND_H_
#define ASR_STORAGE_FILE_BACKEND_H_

#include <atomic>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "common/macros.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/latency.h"
#include "storage/backend.h"

namespace asr::storage {

class FileBackend : public StorageBackend {
 public:
  // `dir` empty: create a private mkdtemp directory (removed, with all
  // segment files, on destruction). Non-empty: use it (must exist or be
  // creatable); the directory itself is kept, segment files are still
  // unlinked on destruction. `durable` turns on the structural fsyncs
  // (directory entry on segment creation, file metadata on growth).
  FileBackend(std::string dir, bool mmap_reads, bool durable = false);
  ~FileBackend() override;
  ASR_DISALLOW_COPY_AND_ASSIGN(FileBackend);

  BackendKind kind() const override { return BackendKind::kFile; }
  void AddSegment(const std::string& name) override;
  void AddPage(uint32_t segment) override;
  Status Read(uint32_t segment, uint32_t page_no, Page* out) override;
  Status Write(uint32_t segment, uint32_t page_no, const Page& page) override;
  Status Sync(uint32_t segment) override;
  Status SyncAll() override;
  bool read_only() const override {
    return read_only_.load(std::memory_order_acquire);
  }
  void ExportMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix) const override;

  const std::string& dir() const { return dir_; }
  bool mmap_reads() const { return mmap_reads_; }
  uint64_t fsyncs() const { return fsyncs_.load(std::memory_order_relaxed); }
  uint64_t dir_fsyncs() const {
    return dir_fsyncs_.load(std::memory_order_relaxed);
  }
  uint64_t mmap_fallbacks() const {
    return mmap_fallbacks_.load(std::memory_order_relaxed);
  }
  // First permanent write failure (OK while healthy).
  Status write_error() const;

  // Wall-clock latency of the seam operations, microseconds. The file
  // backend is the wall-clock currency, so these are always on; they are
  // mirrored into the LiveTelemetry hub for the sampler and exported as
  // histograms next to the byte counters.
  obs::HistogramSnapshot read_latency() const { return read_us_.snapshot(); }
  obs::HistogramSnapshot write_latency() const {
    return write_us_.snapshot();
  }
  obs::HistogramSnapshot sync_latency() const { return sync_us_.snapshot(); }

  // Demotes the backend to read-only as if `why` had been a permanent write
  // failure (test hook for the degradation paths; also called internally).
  void EnterReadOnly(const Status& why);

 private:
  struct Segment {
    int fd = -1;
    uint32_t pages = 0;          // logical page count
    uint32_t capacity_pages = 0; // pages the file (and mapping) can hold
    std::byte* map = nullptr;    // MAP_SHARED mapping when mmap serves reads
    bool mmap_disabled = false;  // a failed (re)map demoted reads to pread
    std::string path;
  };

  Segment& Seg(uint32_t segment);
  const Segment& Seg(uint32_t segment) const;
  // Grows seg's file (and mapping) to hold at least `pages` pages.
  void Reserve(Segment* seg, uint32_t pages);

  mutable std::shared_mutex mu_;  // guards the segment table structure
  std::deque<Segment> segments_ ASR_GUARDED_BY(mu_);
  std::string dir_;
  bool owns_dir_ = false;
  bool mmap_reads_ = false;
  bool durable_ = false;

  std::atomic<bool> read_only_{false};
  mutable std::mutex error_mu_;  // guards write_error_ (cold path)
  Status write_error_ ASR_GUARDED_BY(error_mu_);

  // Relaxed atomics: bumped from per-segment accessor threads, read only at
  // quiescent export points. (Unlike AccessStats these cross segments, so
  // plain counters would race under parallel builds.)
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> mmap_reads_served_{0};
  std::atomic<uint64_t> remaps_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> dir_fsyncs_{0};
  std::atomic<uint64_t> mmap_fallbacks_{0};

  // Storage-seam latency histograms (shared-safe: per-segment accessor
  // threads observe, the telemetry sampler reads concurrently).
  obs::SharedHistogram read_us_;
  obs::SharedHistogram write_us_;
  obs::SharedHistogram sync_us_;
};

}  // namespace asr::storage

#endif  // ASR_STORAGE_FILE_BACKEND_H_
