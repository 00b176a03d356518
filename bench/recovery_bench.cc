// Beyond the paper: recovery-overhead benchmark for the fault model.
//
// Three costs of the crash-consistency machinery are metered on the Fig. 4
// profile (full extension, binary decomposition): (1) a clean restart —
// Recover() when the journal is empty and every partition passes triage;
// (2) the crash matrix — a maintenance op is crashed at the k-th tree-page
// write (dropped and torn variants), Recover() re-derives a consistent
// state, and its page/wall cost is swept over k; (3) degradation — a
// corrupted partition is quarantined, queries fall back to object-base
// navigation until Repair() rebuilds the trees. Results go to stdout and
// BENCH_recovery.json.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "asr/access_support_relation.h"
#include "bench_util.h"
#include "obs/metrics.h"
#include "storage/backend.h"
#include "storage/fault_injector.h"
#include "storage/file_backend.h"
#include "storage/mvcc.h"
#include "workload/meter.h"
#include "workload/synthetic_base.h"

namespace {

// Accumulated cost of one recovery class over the sweep.
struct RecoveryCost {
  uint64_t points = 0;        // crash points exercised
  uint64_t recoveries = 0;    // successful Recover() calls
  uint64_t total_pages = 0;   // page accesses across all recoveries
  uint64_t max_pages = 0;
  double total_ms = 0;
  uint64_t rows_recomputed = 0;

  double mean_pages() const {
    return recoveries > 0
               ? static_cast<double>(total_pages) /
                     static_cast<double>(recoveries)
               : 0;
  }
  double mean_ms() const {
    return recoveries > 0 ? total_ms / static_cast<double>(recoveries) : 0;
  }
};

// One durable-mode eviction workload on the real file backend: a buffer
// pool much smaller than the dirty working set churns write-backs, and the
// durability policy decides how many of them turn into fdatasync calls.
// Both modes end with FlushAll, so they leave identical on-disk guarantees.
struct DurabilityCost {
  uint64_t page_writes = 0;  // write-backs that reached the backend
  uint64_t fsyncs = 0;       // real fdatasync/fsync calls issued
  double wall_ms = 0;
  // Seam latency over the workload, from the backend's own histograms.
  asr::obs::HistogramSnapshot write_us;
  asr::obs::HistogramSnapshot sync_us;
};

DurabilityCost RunDurabilityWorkload(asr::storage::DurabilityMode mode,
                                     uint32_t flush_batch) {
  using namespace asr::storage;
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("asr_recovery_bench_dur_" + std::string(
                            DurabilityModeName(mode)));
  fs::remove_all(dir);
  fs::create_directories(dir);
  DurabilityCost cost;
  {
    DiskOptions options = DiskOptions::File(dir.string(), /*mmap=*/false);
    options.durability = mode;
    options.flush_batch = flush_batch;
    Disk disk(options);
    const uint32_t seg = disk.CreateSegment("bench:durability");
    std::vector<PageId> ids;
    for (uint32_t i = 0; i < 512; ++i) ids.push_back(disk.AllocatePage(seg));
    asr::bench::WallTimer timer;
    {
      BufferManager pool(&disk, /*capacity=*/32);
      for (uint32_t round = 0; round < 4; ++round) {
        for (PageId id : ids) {
          PageGuard guard = pool.Pin(id);
          guard.page().Write<uint64_t>(0, round * ids.size() + id.page_no);
          guard.MarkDirty();
        }
      }
      ASR_CHECK(pool.FlushAll().ok());
    }
    cost.wall_ms = timer.ElapsedMs();
    cost.page_writes = disk.segment_stats(seg).page_writes;
    auto* fb = static_cast<FileBackend*>(disk.backend());
    cost.fsyncs = fb->fsyncs();
    cost.write_us = fb->write_latency();
    cost.sync_us = fb->sync_latency();
  }
  fs::remove_all(dir);
  return cost;
}

// Page reads billed to segments outside the B+ trees: the object-base
// navigation cost a degraded query pays and a healthy one does not.
uint64_t NonTreePageReads(asr::storage::Disk* disk) {
  uint64_t total = 0;
  for (uint32_t s = 0; s < disk->segment_count(); ++s) {
    if (disk->SegmentName(s).rfind("btree:", 0) == 0) continue;
    total += disk->segment_stats(s).page_reads;
  }
  return total;
}

// One multi-writer run: W threads over ONE transactional ASR, each toggling
// its own edge. The writers take turns on the partition claims, blocking;
// the MVCC first-committer-wins check stays underneath as the safety net,
// and its conflict count must stay zero. Committed ops come from the
// maintenance journal, commits and conflicts from the MVCC manager.
struct MultiWriterCost {
  uint32_t writers = 0;
  uint64_t ops_committed = 0;
  uint64_t ops_aborted = 0;   // commit-time conflicts (should be zero)
  uint64_t txn_commits = 0;   // storage commit groups
  uint64_t txn_conflicts = 0; // storage-level first-committer losses
  double wall_ms = 0;

  double ops_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(ops_committed) * 1000.0 / wall_ms
                       : 0;
  }
  double conflict_ratio() const {
    uint64_t attempts = txn_commits + txn_conflicts;
    return attempts > 0 ? static_cast<double>(txn_conflicts) /
                              static_cast<double>(attempts)
                        : 0;
  }
};

MultiWriterCost RunMultiWriterWorkload(const asr::cost::ApplicationProfile&
                                           profile,
                                       uint32_t writers, uint32_t iters) {
  using namespace asr;
  auto base =
      workload::SyntheticBase::Generate(profile, {2026, writers}).value();
  storage::MvccManager mvcc;
  base->disk()->AttachMvcc(&mvcc);
  AsrOptions options;
  options.transactional = true;
  auto asr = AccessSupportRelation::Build(
                 base->store(), base->path(), ExtensionKind::kFull,
                 Decomposition::Binary(base->path().n()), options)
                 .value();
  // Writer k toggles its own edge (u_k at path position 2 -> w_k): the row
  // sets are disjoint, so correctness never depends on ordering, but every
  // op claims the shared partition stores — the contention being metered.
  // The setup pass makes each edge start absent so the toggle is symmetric.
  const PathStep& step = base->path().step(3);
  std::vector<Oid> us(writers);
  std::vector<AsrKey> ws(writers), set_keys(writers);
  for (uint32_t k = 0; k < writers; ++k) {
    us[k] = base->objects_at(2)[k];
    ws[k] = AsrKey::FromOid(base->objects_at(3)[writers + k]);
    set_keys[k] =
        base->store()->GetAttributeByName(us[k], step.attr_name).value();
    ASR_CHECK(!set_keys[k].IsNull());
    if (base->store()->SetContains(set_keys[k].ToOid(), ws[k]).value()) {
      ASR_CHECK(
          base->store()->RemoveFromSet(set_keys[k].ToOid(), ws[k]).ok());
      ASR_CHECK(asr->OnEdgeRemoved(us[k], 2, ws[k]).ok());
    }
  }

  const uint64_t journal_before = asr->journal().committed();
  const uint64_t commits_before = mvcc.commits().value();
  std::vector<std::thread> fleet;
  asr::bench::WallTimer timer;
  for (uint32_t k = 0; k < writers; ++k) {
    fleet.emplace_back([&, k] {
      for (uint32_t i = 0; i < iters; ++i) {
        ASR_CHECK(base->store()->AddToSet(set_keys[k].ToOid(), ws[k]).ok());
        ASR_CHECK(asr->OnEdgeInserted(us[k], 2, ws[k]).ok());
        ASR_CHECK(
            base->store()->RemoveFromSet(set_keys[k].ToOid(), ws[k]).ok());
        ASR_CHECK(asr->OnEdgeRemoved(us[k], 2, ws[k]).ok());
      }
    });
  }
  for (std::thread& t : fleet) t.join();

  MultiWriterCost cost;
  cost.writers = writers;
  cost.wall_ms = timer.ElapsedMs();
  cost.ops_committed = asr->journal().committed() - journal_before;
  cost.ops_aborted = asr->journal().aborted();
  cost.txn_commits = mvcc.commits().value() - commits_before;
  cost.txn_conflicts = mvcc.conflicts().value();
  return cost;
}

}  // namespace

int main() {
  using namespace asr;
  using namespace asr::bench;
  using storage::FaultInjector;
  using storage::FaultKind;
  using storage::FaultSpec;

  cost::ApplicationProfile profile = Fig4Profile();
  Title("Recovery overhead",
        "crash matrix + degradation, Fig. 4 profile, full ext., binary dec.");
  auto base = workload::SyntheticBase::Generate(profile, {2026, 0}).value();
  const uint32_t n = base->path().n();
  auto asr = AccessSupportRelation::Build(base->store(), base->path(),
                                          ExtensionKind::kFull,
                                          Decomposition::Binary(n))
                 .value();
  ASR_CHECK(base->buffers()->FlushAll().ok());

  // --- Clean restart: triage every partition, re-derive nothing ----------
  RecoveryReport clean_report;
  asr::bench::WallTimer clean_timer;
  storage::AccessStats clean_cost = workload::Meter(base->disk(), [&] {
    ASR_CHECK(asr->Recover(&clean_report).ok());
  });
  double clean_ms = clean_timer.ElapsedMs();
  Claim("clean restart takes the fast path (nothing recomputed)",
        clean_report.clean && clean_report.rows_recomputed == 0);

  // --- Crash matrix: crash the k-th tree write of a maintenance op -------
  // The same edge (u at path position 2 -> w) is toggled in and out of the
  // base; the base mutation always completes before the injector is armed,
  // so each Recover() re-derives against a well-formed object base — the
  // same discipline a write-ahead base commit gives a real system.
  const PathStep& step = base->path().step(3);
  Oid u = base->objects_at(2)[1];
  Oid w = base->objects_at(3)[7];
  AsrKey set_key = base->store()->GetAttributeByName(u, step.attr_name).value();
  ASR_CHECK(!set_key.IsNull());

  RecoveryCost costs[2];  // [0] = write crash, [1] = torn write
  const FaultKind kinds[2] = {FaultKind::kWriteCrash, FaultKind::kTornWrite};
  for (int variant = 0; variant < 2; ++variant) {
    FaultInjector injector;
    base->disk()->set_fault_injector(&injector);
    for (uint64_t k = 1; k <= 64; ++k) {
      const bool present =
          base->store()->SetContains(set_key.ToOid(), AsrKey::FromOid(w))
              .value();
      if (present) {
        ASR_CHECK(base->store()
                      ->RemoveFromSet(set_key.ToOid(), AsrKey::FromOid(w))
                      .ok());
      } else {
        ASR_CHECK(base->store()
                      ->AddToSet(set_key.ToOid(), AsrKey::FromOid(w))
                      .ok());
      }
      FaultSpec spec;
      spec.kind = kinds[variant];
      spec.after_matching = k;
      spec.segment_prefix = "btree:";
      injector.Arm(spec);
      Status st = present ? asr->OnEdgeRemoved(u, 2, AsrKey::FromOid(w))
                          : asr->OnEdgeInserted(u, 2, AsrKey::FromOid(w));
      if (!injector.fired()) {
        // The op finished with fewer than k tree writes: sweep exhausted.
        injector.Disarm();
        ASR_CHECK(st.ok());
        break;
      }
      RecoveryCost& c = costs[variant];
      ++c.points;
      RecoveryReport report;
      asr::bench::WallTimer timer;
      storage::AccessStats cost = workload::Meter(base->disk(), [&] {
        ASR_CHECK(asr->Recover(&report).ok());
      });
      c.total_ms += timer.ElapsedMs();
      ++c.recoveries;
      c.total_pages += cost.total();
      c.max_pages = std::max(c.max_pages, cost.total());
      c.rows_recomputed += report.rows_recomputed;
      // Torn pages can leave a partition quarantined; re-admit it so the
      // next sweep point starts from a fully healthy ASR.
      ASR_CHECK(asr->Repair().ok());
      ASR_CHECK(!asr->degraded());
    }
    base->disk()->set_fault_injector(nullptr);
  }

  Header({"recovery class", "points", "mean pages", "max pages", "mean ms"});
  Cell("clean restart");
  Cell(1.0);
  Cell(static_cast<double>(clean_cost.total()));
  Cell(static_cast<double>(clean_cost.total()));
  Cell(clean_ms);
  EndRow();
  const char* labels[2] = {"write crash", "torn write"};
  for (int variant = 0; variant < 2; ++variant) {
    Cell(labels[variant]);
    Cell(static_cast<double>(costs[variant].points));
    Cell(costs[variant].mean_pages());
    Cell(static_cast<double>(costs[variant].max_pages));
    Cell(costs[variant].mean_ms());
    EndRow();
  }
  std::printf("\n");
  Claim("every write-crash point recovered",
        costs[0].points > 0 && costs[0].recoveries == costs[0].points);
  Claim("every torn-write point recovered",
        costs[1].points > 0 && costs[1].recoveries == costs[1].points);

  // --- Degradation: quarantined partition answers by navigation ----------
  AsrKey anchor = AsrKey::FromOid(base->objects_at(0)[0]);
  base->disk()->ResetStats();
  storage::AccessStats healthy = workload::Meter(base->disk(), [&] {
    ASR_CHECK(asr->EvalForward(anchor, 0, n).ok());
  });
  uint64_t healthy_nav = NonTreePageReads(base->disk());

  // Scribble zeros over a page of partition 0's forward tree: the checksum
  // is valid, so Recover()'s structural triage quarantines the partition.
  uint32_t seg = asr->partition_store(0)->forward->segment();
  storage::Page zeros;
  ASR_CHECK(base->disk()->WritePage(storage::PageId{seg, 0}, zeros).ok());
  base->buffers()->DropAll();
  RecoveryReport degrade_report;
  ASR_CHECK(asr->Recover(&degrade_report).ok());
  ASR_CHECK(asr->degraded());

  base->disk()->ResetStats();
  storage::AccessStats degraded = workload::Meter(base->disk(), [&] {
    ASR_CHECK(asr->EvalForward(anchor, 0, n).ok());
  });
  uint64_t degraded_nav = NonTreePageReads(base->disk());

  RecoveryReport repair_report;
  asr::bench::WallTimer repair_timer;
  storage::AccessStats repair_cost = workload::Meter(base->disk(), [&] {
    ASR_CHECK(asr->Repair(&repair_report).ok());
  });
  double repair_ms = repair_timer.ElapsedMs();

  base->disk()->ResetStats();
  storage::AccessStats repaired = workload::Meter(base->disk(), [&] {
    ASR_CHECK(asr->EvalForward(anchor, 0, n).ok());
  });
  uint64_t repaired_nav = NonTreePageReads(base->disk());

  Header({"query state", "pages", "base reads"});
  Cell("healthy");
  Cell(static_cast<double>(healthy.total()));
  Cell(static_cast<double>(healthy_nav));
  EndRow();
  Cell("degraded");
  Cell(static_cast<double>(degraded.total()));
  Cell(static_cast<double>(degraded_nav));
  EndRow();
  Cell("repaired");
  Cell(static_cast<double>(repaired.total()));
  Cell(static_cast<double>(repaired_nav));
  EndRow();
  std::printf("\n");
  Claim("healthy and repaired queries touch no object-base pages",
        healthy_nav == 0 && repaired_nav == 0);
  // Total pages can go either way on a short path slice (a tree probe costs
  // root-to-leaf reads too); the structural signature of degradation is
  // object-base traffic that a supported query never pays.
  Claim("degraded query pays for object-base navigation",
        degraded_nav > 0 && healthy_nav == 0);
  Claim("repair re-admitted the partition",
        repair_report.partitions_repaired >= 1 && !asr->degraded());

  // --- Durability: group flush vs per-page fsync on the file backend ------
  // 2048 dirty write-backs through a 32-frame pool. kPage buys its recovery
  // guarantee with one fdatasync per write-back; kGroup batches a run of
  // write-backs per sync and closes the final run in FlushAll, so both end
  // at the same durability point.
  DurabilityCost page_cost =
      RunDurabilityWorkload(storage::DurabilityMode::kPage, 64);
  DurabilityCost group_cost =
      RunDurabilityWorkload(storage::DurabilityMode::kGroup, 64);
  Header({"durability mode", "page writes", "fsyncs", "wall ms"});
  Cell("page");
  Cell(static_cast<double>(page_cost.page_writes));
  Cell(static_cast<double>(page_cost.fsyncs));
  Cell(page_cost.wall_ms);
  EndRow();
  Cell("group (batch 64)");
  Cell(static_cast<double>(group_cost.page_writes));
  Cell(static_cast<double>(group_cost.fsyncs));
  Cell(group_cost.wall_ms);
  EndRow();
  std::printf("\n");
  Claim("both modes persisted the same write-back stream",
        page_cost.page_writes == group_cost.page_writes &&
            page_cost.page_writes > 0);
  Claim("group flush cuts fsyncs at least 4x at equal guarantees",
        group_cost.fsyncs > 0 &&
            group_cost.fsyncs * 4 <= page_cost.fsyncs);

  // --- Multi-writer: transactional throughput on one shared ASR -----------
  // W writer threads toggle disjoint edges through the transactional path,
  // waiting on the partition claims in turn. Committed ops must equal the
  // offered load at every width with nothing aborted; the conflict column
  // shows the first-committer-wins check never firing under the claims.
  // 500 iterations per writer keep every width above ~50 ms of wall time,
  // long enough for the rows to reproduce.
  constexpr int kMwWidths = 4;
  const uint32_t widths[kMwWidths] = {1, 2, 4, 8};
  const uint32_t kMwIters = 500;
  MultiWriterCost mw[kMwWidths];
  for (int i = 0; i < kMwWidths; ++i) {
    mw[i] = RunMultiWriterWorkload(profile, widths[i], kMwIters);
  }
  Header({"writers", "ops", "wall ms", "ops/sec", "conflicts"});
  for (int i = 0; i < kMwWidths; ++i) {
    Cell(static_cast<double>(mw[i].writers));
    Cell(static_cast<double>(mw[i].ops_committed));
    Cell(mw[i].wall_ms);
    Cell(mw[i].ops_per_sec());
    Cell(static_cast<double>(mw[i].txn_conflicts));
    EndRow();
  }
  std::printf("\n");
  bool mw_all_committed = true;
  for (int i = 0; i < kMwWidths; ++i) {
    mw_all_committed = mw_all_committed &&
                       mw[i].ops_committed ==
                           static_cast<uint64_t>(widths[i]) * 2 * kMwIters &&
                       mw[i].ops_aborted == 0;
  }
  Claim("every offered op committed at every writer width", mw_all_committed);

  FILE* json = std::fopen("BENCH_recovery.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"profile\": \"fig4\",\n");
    std::fprintf(json, "  \"extension\": \"full\",\n");
    std::fprintf(json, "  \"decomposition\": \"binary\",\n");
    std::fprintf(json,
                 "  \"clean_restart\": {\"pages\": %llu, \"wall_ms\": %.3f},\n",
                 static_cast<unsigned long long>(clean_cost.total()),
                 clean_ms);
    std::fprintf(json, "  \"crash_matrix\": {\n");
    const char* keys[2] = {"write_crash", "torn_write"};
    for (int variant = 0; variant < 2; ++variant) {
      const RecoveryCost& c = costs[variant];
      std::fprintf(json,
                   "    \"%s\": {\"points\": %llu, \"recovered\": %llu, "
                   "\"mean_pages\": %.1f, \"max_pages\": %llu, "
                   "\"mean_wall_ms\": %.3f, \"rows_recomputed\": %llu}%s\n",
                   keys[variant], static_cast<unsigned long long>(c.points),
                   static_cast<unsigned long long>(c.recoveries),
                   c.mean_pages(),
                   static_cast<unsigned long long>(c.max_pages), c.mean_ms(),
                   static_cast<unsigned long long>(c.rows_recomputed),
                   variant == 0 ? "," : "");
    }
    std::fprintf(json, "  },\n");
    std::fprintf(json, "  \"durability\": {\n");
    std::fprintf(json,
                 "    \"page\": {\"page_writes\": %llu, \"fsyncs\": %llu, "
                 "\"wall_ms\": %.3f, \"write_p50_us\": %llu, "
                 "\"write_p99_us\": %llu, \"sync_p50_us\": %llu, "
                 "\"sync_p99_us\": %llu},\n",
                 static_cast<unsigned long long>(page_cost.page_writes),
                 static_cast<unsigned long long>(page_cost.fsyncs),
                 page_cost.wall_ms,
                 static_cast<unsigned long long>(
                     page_cost.write_us.Percentile(0.5)),
                 static_cast<unsigned long long>(
                     page_cost.write_us.Percentile(0.99)),
                 static_cast<unsigned long long>(
                     page_cost.sync_us.Percentile(0.5)),
                 static_cast<unsigned long long>(
                     page_cost.sync_us.Percentile(0.99)));
    std::fprintf(json,
                 "    \"group\": {\"flush_batch\": 64, \"page_writes\": %llu, "
                 "\"fsyncs\": %llu, \"wall_ms\": %.3f, "
                 "\"write_p50_us\": %llu, \"write_p99_us\": %llu, "
                 "\"sync_p50_us\": %llu, \"sync_p99_us\": %llu},\n",
                 static_cast<unsigned long long>(group_cost.page_writes),
                 static_cast<unsigned long long>(group_cost.fsyncs),
                 group_cost.wall_ms,
                 static_cast<unsigned long long>(
                     group_cost.write_us.Percentile(0.5)),
                 static_cast<unsigned long long>(
                     group_cost.write_us.Percentile(0.99)),
                 static_cast<unsigned long long>(
                     group_cost.sync_us.Percentile(0.5)),
                 static_cast<unsigned long long>(
                     group_cost.sync_us.Percentile(0.99)));
    std::fprintf(json, "    \"fsync_reduction\": %.1f\n",
                 group_cost.fsyncs > 0
                     ? static_cast<double>(page_cost.fsyncs) /
                           static_cast<double>(group_cost.fsyncs)
                     : 0.0);
    std::fprintf(json, "  },\n");
    std::fprintf(json, "  \"multi_writer\": [\n");
    for (int i = 0; i < kMwWidths; ++i) {
      std::fprintf(json,
                   "    {\"writers\": %u, \"ops_committed\": %llu, "
                   "\"wall_ms\": %.3f, \"ops_per_sec\": %.1f, "
                   "\"txn_commits\": %llu, \"txn_conflicts\": %llu, "
                   "\"conflict_ratio\": %.3f}%s\n",
                   mw[i].writers,
                   static_cast<unsigned long long>(mw[i].ops_committed),
                   mw[i].wall_ms, mw[i].ops_per_sec(),
                   static_cast<unsigned long long>(mw[i].txn_commits),
                   static_cast<unsigned long long>(mw[i].txn_conflicts),
                   mw[i].conflict_ratio(), i + 1 < kMwWidths ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(
        json,
        "  \"degradation\": {\"healthy_pages\": %llu, "
        "\"degraded_pages\": %llu, \"degraded_base_reads\": %llu, "
        "\"repair_pages\": %llu, \"repair_wall_ms\": %.3f, "
        "\"repaired_pages\": %llu}\n",
        static_cast<unsigned long long>(healthy.total()),
        static_cast<unsigned long long>(degraded.total()),
        static_cast<unsigned long long>(degraded_nav),
        static_cast<unsigned long long>(repair_cost.total()), repair_ms,
        static_cast<unsigned long long>(repaired.total()));
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_recovery.json\n");
  }
  return 0;
}
