#include "storage/backend.h"

#include <cstdlib>
#include <cstring>
#include <mutex>

#include "storage/file_backend.h"

namespace asr::storage {

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMemory:
      return "memory";
    case BackendKind::kFile:
      return "file";
  }
  return "unknown";
}

const char* DurabilityModeName(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kOff:
      return "off";
    case DurabilityMode::kGroup:
      return "group";
    case DurabilityMode::kPage:
      return "page";
  }
  return "unknown";
}

DiskOptions DiskOptions::FromEnv() {
  DiskOptions o;
  const char* backend = std::getenv("ASR_STORAGE_BACKEND");
  if (backend != nullptr && std::strcmp(backend, "file") == 0) {
    o.backend = BackendKind::kFile;
  }
  const char* dir = std::getenv("ASR_STORAGE_DIR");
  if (dir != nullptr) o.file_dir = dir;
  const char* mmap = std::getenv("ASR_STORAGE_MMAP");
  if (mmap != nullptr) o.mmap_reads = std::strcmp(mmap, "0") != 0;
  const char* durability = std::getenv("ASR_DURABILITY");
  if (durability != nullptr) {
    if (std::strcmp(durability, "group") == 0) {
      o.durability = DurabilityMode::kGroup;
    } else if (std::strcmp(durability, "page") == 0) {
      o.durability = DurabilityMode::kPage;
    }
  }
  const char* batch = std::getenv("ASR_FLUSH_BATCH");
  if (batch != nullptr) {
    long v = std::strtol(batch, nullptr, 10);
    if (v >= 1) o.flush_batch = static_cast<uint32_t>(v);
  }
  return o;
}

std::unique_ptr<StorageBackend> MakeBackend(const DiskOptions& options) {
  switch (options.backend) {
    case BackendKind::kMemory:
      return std::make_unique<MemoryBackend>();
    case BackendKind::kFile:
      return std::make_unique<FileBackend>(
          options.file_dir, options.mmap_reads,
          options.durability != DurabilityMode::kOff);
  }
  ASR_CHECK(false);
  return nullptr;
}

void MemoryBackend::AddSegment(const std::string& name) {
  (void)name;
  std::unique_lock<std::shared_mutex> lock(mu_);
  segments_.emplace_back();
}

std::vector<Page>& MemoryBackend::Pages(uint32_t segment) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  ASR_CHECK(segment < segments_.size());
  return segments_[segment];
}

void MemoryBackend::AddPage(uint32_t segment) {
  Pages(segment).emplace_back();
}

Status MemoryBackend::Read(uint32_t segment, uint32_t page_no, Page* out) {
  *out = Pages(segment)[page_no];
  return Status::OK();
}

Status MemoryBackend::Write(uint32_t segment, uint32_t page_no,
                            const Page& page) {
  Pages(segment)[page_no] = page;
  return Status::OK();
}

void MemoryBackend::ExportMetrics(obs::MetricsRegistry* registry,
                                  const std::string& prefix) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  uint64_t pages = 0;
  for (const std::vector<Page>& seg : segments_) pages += seg.size();
  registry->Set(prefix + ".kind", 0);
  registry->Set(prefix + ".resident_pages", pages);
}

}  // namespace asr::storage
