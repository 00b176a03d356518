#include "storage/file_backend.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "obs/events.h"
#include "storage/io_retry.h"

namespace asr::storage {

namespace {

// File growth quantum: small segments stay small, big builds amortize
// ftruncate (and remap) to O(log pages) calls.
constexpr uint32_t kMinCapacityPages = 64;

std::string ErrnoMessage(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

FileBackend::FileBackend(std::string dir, bool mmap_reads, bool durable)
    : mmap_reads_(mmap_reads), durable_(durable) {
  if (dir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    std::string tmpl = std::string(tmp != nullptr ? tmp : "/tmp") +
                       "/asr-disk-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASR_CHECK(mkdtemp(buf.data()) != nullptr);
    dir_ = buf.data();
    owns_dir_ = true;
  } else {
    dir_ = std::move(dir);
    // Best effort create; an existing directory is fine.
    ::mkdir(dir_.c_str(), 0755);
  }
}

FileBackend::~FileBackend() {
  for (Segment& seg : segments_) {
    if (seg.map != nullptr) {
      ::munmap(seg.map, static_cast<size_t>(seg.capacity_pages) * kPageSize);
    }
    if (seg.fd >= 0) ::close(seg.fd);
    if (!seg.path.empty()) ::unlink(seg.path.c_str());
  }
  if (owns_dir_) ::rmdir(dir_.c_str());
}

void FileBackend::EnterReadOnly(const Status& why) {
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (write_error_.ok()) {
      write_error_ = why;
      first = true;
    }
  }
  read_only_.store(true, std::memory_order_release);
  if (first) {
    ASR_EVENT(obs::EventKind::kReadOnlyDemotion, "reason=" + why.message());
  }
}

Status FileBackend::write_error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return write_error_;
}

FileBackend::Segment& FileBackend::Seg(uint32_t segment) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  ASR_CHECK(segment < segments_.size());
  return segments_[segment];
}

const FileBackend::Segment& FileBackend::Seg(uint32_t segment) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  ASR_CHECK(segment < segments_.size());
  return segments_[segment];
}

void FileBackend::AddSegment(const std::string& name) {
  (void)name;  // segment names can repeat and carry '/'; files go by id
  std::unique_lock<std::shared_mutex> lock(mu_);
  Segment seg;
  seg.path = dir_ + "/seg-" + std::to_string(segments_.size());
  seg.fd = ::open(seg.path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (seg.fd < 0) {
    // A segment that cannot be backed demotes the store to read-only: the
    // id is still registered (the layers above assume registration never
    // fails) but every page I/O against it fails fast.
    EnterReadOnly(
        Status::IOError(ErrnoMessage("create segment file " + seg.path)));
    seg.path.clear();
  } else if (durable_) {
    // The file's directory entry must survive a crash for the segment to be
    // findable after reopen.
    if (io::FsyncDir(dir_).ok()) {
      dir_fsyncs_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  segments_.push_back(std::move(seg));
}

void FileBackend::Reserve(Segment* seg, uint32_t pages) {
  if (pages <= seg->capacity_pages || seg->fd < 0) return;
  uint32_t cap = seg->capacity_pages == 0 ? kMinCapacityPages
                                          : seg->capacity_pages * 2;
  while (cap < pages) cap *= 2;
  if (::ftruncate(seg->fd, static_cast<off_t>(cap) * kPageSize) != 0) {
    // Growth failed (e.g. disk full): keep the old capacity and demote to
    // read-only. Writes to already-backed pages would still be possible,
    // but a store that cannot allocate cannot complete any maintenance op,
    // so failing them all fast keeps the degradation story simple.
    EnterReadOnly(
        Status::IOError(ErrnoMessage("ftruncate " + seg->path + " to " +
                                     std::to_string(cap) + " pages")));
    return;
  }
  if (durable_) {
    // The new size is file metadata the post-crash pread path depends on.
    if (io::Fdatasync(seg->fd, "fdatasync after growth").ok()) {
      fsyncs_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (mmap_reads_ && !seg->mmap_disabled) {
    if (seg->map != nullptr) {
      ::munmap(seg->map,
               static_cast<size_t>(seg->capacity_pages) * kPageSize);
      seg->map = nullptr;
    }
    void* map = ::mmap(nullptr, static_cast<size_t>(cap) * kPageSize,
                       PROT_READ, MAP_SHARED, seg->fd, 0);
    if (map == MAP_FAILED) {
      // Graceful fallback: reads of this segment are served by pread from
      // now on. Not an error — the mapping is an optimization.
      seg->mmap_disabled = true;
      mmap_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    } else {
      seg->map = static_cast<std::byte*>(map);
      remaps_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  seg->capacity_pages = cap;
}

void FileBackend::AddPage(uint32_t segment) {
  Segment& seg = Seg(segment);
  Reserve(&seg, seg.pages + 1);
  // ftruncate extends with zeros, so the new page needs no explicit clear.
  ++seg.pages;
}

Status FileBackend::Read(uint32_t segment, uint32_t page_no, Page* out) {
  Segment& seg = Seg(segment);
  if (seg.fd < 0) {
    return Status::IOError("segment " + std::to_string(segment) +
                           " has no backing file (read-only backend)");
  }
  const off_t off = static_cast<off_t>(page_no) * kPageSize;
  obs::LatencyTimer timer(
      true, &read_us_, &obs::LiveTelemetry::Instance().storage_read_us);
  // The mapping covers capacity_pages; a page allocated past a failed
  // growth (degraded regime) must go through pread.
  if (seg.map != nullptr && page_no < seg.capacity_pages) {
    std::memcpy(out->data(), seg.map + off, kPageSize);
    mmap_reads_served_.fetch_add(1, std::memory_order_relaxed);
  } else {
    ASR_RETURN_IF_ERROR(io::ReadFull(
        seg.fd, out->data(), kPageSize, off,
        ("pread " + seg.path + " page " + std::to_string(page_no)).c_str()));
  }
  bytes_read_.fetch_add(kPageSize, std::memory_order_relaxed);
  return Status::OK();
}

Status FileBackend::Write(uint32_t segment, uint32_t page_no,
                          const Page& page) {
  if (read_only()) {
    Status why = write_error();
    return Status::IOError("backend is read-only after write failure: " +
                           why.message());
  }
  Segment& seg = Seg(segment);
  if (seg.fd < 0) {
    return Status::IOError("segment " + std::to_string(segment) +
                           " has no backing file (read-only backend)");
  }
  const off_t off = static_cast<off_t>(page_no) * kPageSize;
  obs::LatencyTimer timer(
      true, &write_us_, &obs::LiveTelemetry::Instance().storage_write_us);
  Status st = io::WriteFull(
      seg.fd, page.data(), kPageSize, off,
      ("pwrite " + seg.path + " page " + std::to_string(page_no)).c_str());
  if (!st.ok()) {
    // The retry loop already exhausted the transient budget: what surfaces
    // here is permanent (EIO, ENOSPC, ...) and demotes the backend.
    EnterReadOnly(st);
    return st;
  }
  bytes_written_.fetch_add(kPageSize, std::memory_order_relaxed);
  return Status::OK();
}

Status FileBackend::Sync(uint32_t segment) {
  Segment& seg = Seg(segment);
  if (seg.fd < 0) {
    return Status::IOError("segment " + std::to_string(segment) +
                           " has no backing file (read-only backend)");
  }
  Status st;
  {
    obs::LatencyTimer timer(
        true, &sync_us_, &obs::LiveTelemetry::Instance().storage_sync_us);
    st = io::Fdatasync(seg.fd, ("fdatasync " + seg.path).c_str());
  }
  if (!st.ok()) {
    // A failed fsync means the kernel may have dropped dirty pages whose
    // write already "succeeded" — the classic reason fsync errors must be
    // treated as fatal for the file, not retried.
    EnterReadOnly(st);
    return st;
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status FileBackend::SyncAll() {
  size_t count;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    count = segments_.size();
  }
  Status first = Status::OK();
  for (uint32_t s = 0; s < count; ++s) {
    Status st = Sync(s);
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

void FileBackend::ExportMetrics(obs::MetricsRegistry* registry,
                                const std::string& prefix) const {
  uint64_t pages = 0;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const Segment& seg : segments_) pages += seg.pages;
  }
  registry->Set(prefix + ".kind", 1);
  registry->Set(prefix + ".resident_pages", pages);
  registry->Set(prefix + ".bytes_read",
                bytes_read_.load(std::memory_order_relaxed));
  registry->Set(prefix + ".bytes_written",
                bytes_written_.load(std::memory_order_relaxed));
  registry->Set(prefix + ".mmap_reads",
                mmap_reads_served_.load(std::memory_order_relaxed));
  registry->Set(prefix + ".remaps", remaps_.load(std::memory_order_relaxed));
  registry->Set(prefix + ".fsyncs",
                fsyncs_.load(std::memory_order_relaxed));
  registry->Set(prefix + ".dir_fsyncs",
                dir_fsyncs_.load(std::memory_order_relaxed));
  registry->Set(prefix + ".mmap_fallbacks",
                mmap_fallbacks_.load(std::memory_order_relaxed));
  registry->Set(prefix + ".io_transient_retries", io::transient_retries());
  registry->Set(prefix + ".io_eintr_retries", io::eintr_retries());
  registry->Set(prefix + ".io_resumed_short_reads",
                io::resumed_short_reads());
  registry->Set(prefix + ".io_resumed_short_writes",
                io::resumed_short_writes());
  registry->Set(prefix + ".read_only", read_only() ? 1 : 0);
  registry->SetHistogram(prefix + ".read_us", read_us_.snapshot());
  registry->SetHistogram(prefix + ".write_us", write_us_.snapshot());
  registry->SetHistogram(prefix + ".sync_us", sync_us_.snapshot());
}

}  // namespace asr::storage
