#include "storage/disk.h"

#include <cstring>
#include <mutex>
#include <utility>

#include "common/binary_io.h"
#include "storage/mvcc.h"

namespace asr::storage {

namespace {

// FNV-1a over the page image, folded 8 bytes at a time (kPageSize is a
// multiple of 8). Word folding keeps the dependent-multiply chain 8x shorter
// than the byte-at-a-time form — checksums sit on every counted I/O, so this
// is squarely on the wall-clock path. Not cryptographic; it only has to
// catch torn sectors and stray stomps, like a real page checksum.
uint64_t PageChecksum(const Page& page) {
  const std::byte* bytes = page.data();
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < kPageSize; i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes + i, 8);
    h ^= word;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t ZeroPageChecksum() {
  static const uint64_t checksum = PageChecksum(Page{});
  return checksum;
}

}  // namespace

Disk::Disk(const DiskOptions& options)
    : options_(options), backend_(MakeBackend(options)) {}

Status Disk::SyncSegment(uint32_t segment) {
  sync_requests_.fetch_add(1, std::memory_order_relaxed);
  return backend_->Sync(segment);
}

Status Disk::SyncAll() {
  sync_requests_.fetch_add(1, std::memory_order_relaxed);
  return backend_->SyncAll();
}

Disk::Segment& Disk::GetSegment(uint32_t segment) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  ASR_CHECK(segment < segments_.size());
  return segments_[segment];
}

const Disk::Segment& Disk::GetSegment(uint32_t segment) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  ASR_CHECK(segment < segments_.size());
  return segments_[segment];
}

uint32_t Disk::CreateSegment(std::string name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  uint32_t id = static_cast<uint32_t>(segments_.size());
  backend_->AddSegment(name);
  segments_.push_back(Segment{std::move(name), {}, {}});
  return id;
}

PageId Disk::AllocatePage(uint32_t segment) {
  // Registered segments grow their checksum vector under the mvcc commit
  // lock: snapshot readers index into it under the shared side, and a
  // vector relocation mid-read is exactly the race the lock exists for.
  TxnCommitLock mvcc_guard;
  if (mvcc_ != nullptr) mvcc_guard = mvcc_->LockForAllocate(segment);
  Segment& seg = GetSegment(segment);
  PageId id{segment, static_cast<uint32_t>(seg.checksums.size())};
  backend_->AddPage(segment);
  seg.checksums.push_back(ZeroPageChecksum());
  return id;
}

void Disk::AttachMvcc(MvccManager* mvcc) {
  mvcc_ = mvcc;
  if (mvcc_ != nullptr) mvcc_->disk_ = this;
}

Status Disk::ReadPage(PageId id, Page* out) {
  if (mvcc_ != nullptr) {
    // Read-your-writes: a covered page staged by this thread's transaction
    // wins over the committed image. Uncounted — the staged image lives in
    // memory, and the commit write is the metered access.
    if (mvcc_->TryReadStaged(id, out)) return Status::OK();
    // Registered segments read under the shared version-table lock so a
    // concurrent commit cannot rewrite the backend image mid-read.
    Status routed;
    if (mvcc_->RouteRead(this, id, out, &routed)) return routed;
  }
  return ReadPageUnversioned(id, out);
}

Status Disk::ReadPageSnapshot(PageId id, const PageSnapshot& snap,
                              Page* out) {
  ASR_CHECK(mvcc_ != nullptr);
  return mvcc_->ReadSnapshotPage(this, id, snap, out);
}

Status Disk::ReadPageRaw(PageId id, Page* out) {
  return backend_->Read(id.segment, id.page_no, out);
}

void Disk::CountSnapshotRead(PageId id) {
  ++GetSegment(id.segment).stats.page_reads;
}

Status Disk::ReadPageUnversioned(PageId id, Page* out) {
  Segment& seg = GetSegment(id.segment);
  ASR_CHECK(id.page_no < seg.checksums.size());
  if (injector_ != nullptr &&
      injector_->OnRead(id, seg.name) == FaultInjector::Action::kFailRead) {
    ++seg.stats.page_reads;
    return Status::IOError("injected read fault on " + seg.name + " page " +
                           std::to_string(id.page_no));
  }
  ASR_RETURN_IF_ERROR(backend_->Read(id.segment, id.page_no, out));
  ++seg.stats.page_reads;
  // While the injector reports a crash the process is "still up": reads are
  // served through the cache fiction and verification waits for the restart
  // point (RecoverFromCrash), where torn sectors become visible.
  if (injector_ != nullptr && injector_->crashed()) return Status::OK();
  if (PageChecksum(*out) != seg.checksums[id.page_no]) {
    return Status::Corruption("checksum mismatch on " + seg.name + " page " +
                              std::to_string(id.page_no));
  }
  return Status::OK();
}

Status Disk::WritePage(PageId id, const Page& page) {
  if (mvcc_ != nullptr) {
    Status routed;
    if (mvcc_->RouteWrite(this, id, page, &routed)) return routed;
  }
  return WritePageUnversioned(id, page);
}

Status Disk::WritePageUnversioned(PageId id, const Page& page) {
  Segment& seg = GetSegment(id.segment);
  ASR_CHECK(id.page_no < seg.checksums.size());
  if (injector_ != nullptr) {
    switch (injector_->OnWrite(id, seg.name)) {
      case FaultInjector::Action::kProceed:
        break;
      case FaultInjector::Action::kDropWrite:
        // Lost in the crash: content and checksum keep their old value, so
        // the loss is checksum-invisible (caught by cross-structure checks).
        return Status::IOError("write to " + seg.name + " page " +
                               std::to_string(id.page_no) +
                               " lost in simulated crash");
      case FaultInjector::Action::kTornWrite: {
        // Half the sector makes it to the platter. The torn image is staged
        // until RecoverFromCrash: while the process lives, the cache serves
        // the full image below; the stale checksum is what triage finds.
        TornPage torn{id, Page{}};
        Status read = backend_->Read(id.segment, id.page_no, &torn.image);
        if (!read.ok()) return read;
        std::memcpy(torn.image.data(), page.data(), kPageSize / 2);
        {
          std::unique_lock<std::shared_mutex> lock(mu_);
          pending_torn_.push_back(std::move(torn));
        }
        ASR_RETURN_IF_ERROR(backend_->Write(id.segment, id.page_no, page));
        ++seg.stats.page_writes;
        return Status::IOError("write to " + seg.name + " page " +
                               std::to_string(id.page_no) +
                               " torn in simulated crash");
      }
      case FaultInjector::Action::kFailRead:
        ASR_CHECK(false);  // never returned by OnWrite
    }
  }
  ASR_RETURN_IF_ERROR(backend_->Write(id.segment, id.page_no, page));
  seg.checksums[id.page_no] = PageChecksum(page);
  ++seg.stats.page_writes;
  return Status::OK();
}

Status Disk::VerifyPage(PageId id) {
  Segment& seg = GetSegment(id.segment);
  ASR_CHECK(id.page_no < seg.checksums.size());
  ++seg.stats.page_reads;
  Page page;
  ASR_RETURN_IF_ERROR(backend_->Read(id.segment, id.page_no, &page));
  if (PageChecksum(page) != seg.checksums[id.page_no]) {
    return Status::Corruption("checksum mismatch on " + seg.name + " page " +
                              std::to_string(id.page_no));
  }
  return Status::OK();
}

Status Disk::VerifySegment(uint32_t segment) {
  const uint32_t pages = SegmentPageCount(segment);
  for (uint32_t p = 0; p < pages; ++p) {
    ASR_RETURN_IF_ERROR(VerifyPage(PageId{segment, p}));
  }
  return Status::OK();
}

void Disk::RecoverFromCrash() {
  std::vector<TornPage> torn;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    torn.swap(pending_torn_);
  }
  for (TornPage& t : torn) {
    Segment& seg = GetSegment(t.id.segment);
    ASR_CHECK(t.id.page_no < seg.checksums.size());
    // Install the torn bytes; the checksum (of the full image) stays, so the
    // page now fails verification — exactly a torn sector after restart.
    ASR_CHECK(backend_->Write(t.id.segment, t.id.page_no, t.image).ok());
  }
  if (injector_ != nullptr) injector_->Disarm();
}

uint32_t Disk::SegmentPageCount(uint32_t segment) const {
  return static_cast<uint32_t>(GetSegment(segment).checksums.size());
}

const std::string& Disk::SegmentName(uint32_t segment) const {
  return GetSegment(segment).name;
}

const AccessStats& Disk::segment_stats(uint32_t segment) const {
  return GetSegment(segment).stats;
}

AccessStats Disk::stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  AccessStats total;
  for (const Segment& seg : segments_) total += seg.stats;
  return total;
}

void Disk::ResetStats() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& seg : segments_) seg.stats = AccessStats{};
}

void Disk::ExportMetrics(obs::MetricsRegistry* registry,
                         const std::string& prefix) const {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    AccessStats total;
    uint64_t pages = 0;
    for (const Segment& seg : segments_) {
      total += seg.stats;
      pages += seg.checksums.size();
      if (seg.stats.total() == 0) continue;
      const std::string seg_prefix = prefix + ".segment." + seg.name;
      registry->Set(seg_prefix + ".reads", seg.stats.page_reads);
      registry->Set(seg_prefix + ".writes", seg.stats.page_writes);
    }
    registry->Set(prefix + ".reads", total.page_reads);
    registry->Set(prefix + ".writes", total.page_writes);
    registry->Set(prefix + ".segments", segments_.size());
    registry->Set(prefix + ".pages", pages);
    registry->Set(prefix + ".sync_requests",
                  sync_requests_.load(std::memory_order_relaxed));
  }
  backend_->ExportMetrics(registry, prefix + ".backend");
}

void Disk::Serialize(std::ostream* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  io::WriteScalar<uint32_t>(out, static_cast<uint32_t>(segments_.size()));
  for (uint32_t s = 0; s < segments_.size(); ++s) {
    const Segment& seg = segments_[s];
    io::WriteString(out, seg.name);
    io::WriteScalar<uint32_t>(out, static_cast<uint32_t>(seg.checksums.size()));
    Page page;
    for (uint32_t p = 0; p < seg.checksums.size(); ++p) {
      // Uncounted raw read: snapshots are maintenance, not workload.
      ASR_CHECK(backend_->Read(s, p, &page).ok());
      out->write(reinterpret_cast<const char*>(page.data()), kPageSize);
    }
  }
}

Status Disk::Deserialize(std::istream* in) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    ASR_CHECK(segments_.empty());
  }
  // Deserialize into a staging area and install only on full success: a
  // truncated or corrupt snapshot must leave the disk empty, never
  // half-populated (a partial segment table would satisfy later page-bound
  // checks with pages that were never loaded). Pages are staged in memory
  // and pushed to the backend only after the stream parsed completely.
  struct StagedSegment {
    std::string name;
    std::vector<Page> pages;
  };
  std::deque<StagedSegment> staged;
  Result<uint32_t> seg_count = io::ReadScalar<uint32_t>(in);
  ASR_RETURN_IF_ERROR(seg_count.status());
  for (uint32_t s = 0; s < *seg_count; ++s) {
    Result<std::string> name = io::ReadString(in);
    ASR_RETURN_IF_ERROR(name.status());
    staged.push_back(StagedSegment{std::move(*name), {}});
    StagedSegment& seg = staged.back();
    Result<uint32_t> page_count = io::ReadScalar<uint32_t>(in);
    ASR_RETURN_IF_ERROR(page_count.status());
    // Pages are read one at a time, so an absurd count from a corrupt
    // header fails at the first missing page instead of allocating for it.
    for (uint32_t p = 0; p < *page_count; ++p) {
      Page page;
      in->read(reinterpret_cast<char*>(page.data()), kPageSize);
      if (!in->good()) {
        return Status::Corruption("truncated page data in snapshot");
      }
      seg.pages.push_back(page);
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  ASR_CHECK(segments_.empty());
  for (uint32_t s = 0; s < staged.size(); ++s) {
    StagedSegment& src = staged[s];
    backend_->AddSegment(src.name);
    Segment seg;
    seg.name = std::move(src.name);
    for (uint32_t p = 0; p < src.pages.size(); ++p) {
      backend_->AddPage(s);
      ASR_CHECK(backend_->Write(s, p, src.pages[p]).ok());
      seg.checksums.push_back(PageChecksum(src.pages[p]));
    }
    segments_.push_back(std::move(seg));
  }
  return Status::OK();
}

}  // namespace asr::storage
