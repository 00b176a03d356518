// Kill-based process-crash harness: the durability contract proven against
// real SIGKILL, not simulated faults.
//
// Per iteration, a forked child opens the durable base snapshot on the file
// backend (group-flush durability), attaches a WAL, builds an ASR, and runs
// a deterministic edge-toggle maintenance loop — logging each logical op as
// an 'O' intent record, running the journaled maintenance (whose own
// 'I'/'C' records share the log), and sealing the op with a 'K' commit
// record + fdatasync, checkpointing a durable snapshot every few ops. The
// parent SIGKILLs the child at a randomized progress point, then proves the
// contract from the surviving files alone:
//
//   1. the checkpoint snapshot, if present, opens cleanly (atomic rename),
//   2. the WAL replays with at worst a torn tail (never a corrupt suffix),
//   3. checkpoint + committed-op replay + journal replay + Recover() yields
//      an ASR that passes the full InvariantChecker and answers every
//      supported query exactly like a fault-free twin built from the same
//      checkpoint and committed ops.
//
// The interleaved-writer mode (InterleavedWritersRecoverToTwinEquality) runs
// the same contract with TWO concurrent transactional writers in the child:
// each maintains its own anchored ASR over a disjoint subgraph, journals to
// its own WAL stream of the shared log, and commits page transactions
// through the MVCC layer. SIGKILL lands with the writers in arbitrary —
// usually different — commit phases; recovery must resolve both journals
// independently and leave both ASRs twin-equal.
//
// ASR_KILL_POINTS picks the number of randomized kill points (CI runs 50).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "asr/access_support_relation.h"
#include "check/check_report.h"
#include "check/invariant_checker.h"
#include "common/macros.h"
#include "gom/database.h"
#include "obs/events.h"
#include "storage/backend.h"
#include "storage/wal.h"

namespace asr {
namespace {

using storage::DiskOptions;
using storage::DurabilityMode;
using storage::WriteAheadLog;

// --- The company base inside a Database -----------------------------------

struct CompanyDb {
  TypeId division, prodset, product, basepartset, basepart, meta;
  Oid auto_div, truck_div, space_div;
  Oid prodset_auto, prodset_truck;
  Oid sec560, mbtrak, sausage;
  Oid parts_560, parts_sausage;
  Oid door, pepper;
  Oid watermark;  // Meta object whose Name holds the applied-op count
};

CompanyDb BuildCompany(gom::Database* db) {
  gom::Schema& s = *db->schema();
  gom::ObjectStore& st = *db->store();
  CompanyDb c;
  c.basepart = s.DefineTupleType(
                    "BasePart", {},
                    {{"Name", gom::Schema::kStringType, kInvalidTypeId},
                     {"Price", gom::Schema::kDecimalType, kInvalidTypeId}})
                   .value();
  c.basepartset = s.DefineSetType("BasePartSET", c.basepart).value();
  c.product = s.DefineTupleType(
                   "Product", {},
                   {{"Name", gom::Schema::kStringType, kInvalidTypeId},
                    {"Composition", c.basepartset, kInvalidTypeId}})
                  .value();
  c.prodset = s.DefineSetType("ProdSET", c.product).value();
  c.division = s.DefineTupleType(
                    "Division", {},
                    {{"Name", gom::Schema::kStringType, kInvalidTypeId},
                     {"Manufactures", c.prodset, kInvalidTypeId}})
                   .value();
  c.meta = s.DefineTupleType(
                "Meta", {},
                {{"Name", gom::Schema::kStringType, kInvalidTypeId}})
               .value();

  auto obj = [&](TypeId t) { return st.CreateObject(t).value(); };
  auto set = [&](TypeId t) { return st.CreateSet(t).value(); };
  auto key = [](Oid o) { return AsrKey::FromOid(o); };

  c.auto_div = obj(c.division);
  c.truck_div = obj(c.division);
  c.space_div = obj(c.division);
  c.prodset_auto = set(c.prodset);
  c.prodset_truck = set(c.prodset);
  c.sec560 = obj(c.product);
  c.mbtrak = obj(c.product);
  c.sausage = obj(c.product);
  c.parts_560 = set(c.basepartset);
  c.parts_sausage = set(c.basepartset);
  c.door = obj(c.basepart);
  c.pepper = obj(c.basepart);
  c.watermark = obj(c.meta);

  ASR_CHECK(st.SetString(c.auto_div, "Name", "Auto").ok());
  ASR_CHECK(st.SetString(c.truck_div, "Name", "Truck").ok());
  ASR_CHECK(st.SetString(c.space_div, "Name", "Space").ok());
  ASR_CHECK(st.SetRef(c.auto_div, "Manufactures", c.prodset_auto).ok());
  ASR_CHECK(st.SetRef(c.truck_div, "Manufactures", c.prodset_truck).ok());
  ASR_CHECK(st.AddToSet(c.prodset_auto, key(c.sec560)).ok());
  ASR_CHECK(st.AddToSet(c.prodset_truck, key(c.sec560)).ok());
  ASR_CHECK(st.AddToSet(c.prodset_truck, key(c.mbtrak)).ok());
  ASR_CHECK(st.SetString(c.sec560, "Name", "560 SEC").ok());
  ASR_CHECK(st.SetString(c.mbtrak, "Name", "MB Trak").ok());
  ASR_CHECK(st.SetString(c.sausage, "Name", "Sausage").ok());
  ASR_CHECK(st.SetRef(c.sec560, "Composition", c.parts_560).ok());
  ASR_CHECK(st.SetRef(c.sausage, "Composition", c.parts_sausage).ok());
  ASR_CHECK(st.AddToSet(c.parts_560, key(c.door)).ok());
  ASR_CHECK(st.AddToSet(c.parts_sausage, key(c.pepper)).ok());
  ASR_CHECK(st.SetString(c.door, "Name", "Door").ok());
  ASR_CHECK(st.SetDecimal(c.door, "Price", 1205.50).ok());
  ASR_CHECK(st.SetString(c.pepper, "Name", "Pepper").ok());
  ASR_CHECK(st.SetDecimal(c.pepper, "Price", 0.12).ok());
  ASR_CHECK(st.SetString(c.watermark, "Name", "0").ok());
  return c;
}

PathExpression CompanyPath(gom::Database* db, const CompanyDb& c) {
  return PathExpression::Parse(*db->schema(), c.division,
                               "Manufactures.Composition.Name")
      .value();
}

std::unique_ptr<AccessSupportRelation> BuildAsr(gom::Database* db,
                                                const CompanyDb& c) {
  return AccessSupportRelation::Build(db->store(), CompanyPath(db, c),
                                      ExtensionKind::kFull,
                                      Decomposition::Binary(3))
      .value();
}

// --- The deterministic edge-toggle schedule -------------------------------

// Each op toggles one of these edges: entry = op % 4, direction = whatever
// flips the current membership. The direction is recorded in the op's WAL
// intent so replay never has to guess.
struct EdgeTarget {
  Oid set;   // the base collection the edge lives in
  Oid u;     // maintenance: source object
  uint32_t p;  // maintenance: path position
  Oid w;     // maintenance: target
};

std::vector<EdgeTarget> EdgeTargets(const CompanyDb& c) {
  return {
      {c.prodset_auto, c.auto_div, 0, c.sausage},
      {c.prodset_truck, c.truck_div, 0, c.sausage},
      {c.parts_560, c.sec560, 1, c.pepper},
      {c.prodset_auto, c.auto_div, 0, c.mbtrak},
  };
}

// Applies logical op `op_idx` (direction `insert`) to base + ASR. The base
// mutation must succeed; the returned status is the maintenance one.
Status ApplyOp(gom::Database* db, AccessSupportRelation* asr,
               const CompanyDb& c, uint32_t op_idx, bool insert) {
  const EdgeTarget t = EdgeTargets(c)[op_idx % 4];
  const AsrKey w = AsrKey::FromOid(t.w);
  if (insert) {
    ASR_CHECK(db->store()->AddToSet(t.set, w).ok());
    return asr->OnEdgeInserted(t.u, t.p, w);
  }
  ASR_CHECK(db->store()->RemoveFromSet(t.set, w).ok());
  return asr->OnEdgeRemoved(t.u, t.p, w);
}

// --- Harness WAL records ---------------------------------------------------
//
// The harness shares the database WAL with the maintenance journal. Its own
// record types (routed back by MaintenanceJournal::ApplyWalRecord):
//   'O' [u32 op_idx][u8 insert]   logical-op intent, appended unsynced
//   'K' [u32 op_idx]              logical-op commit, appended + fdatasync

std::string OpIntentRecord(uint32_t op_idx, bool insert) {
  std::string rec(1, 'O');
  for (int i = 0; i < 4; ++i) {
    rec.push_back(static_cast<char>((op_idx >> (8 * i)) & 0xFF));
  }
  rec.push_back(insert ? 1 : 0);
  return rec;
}

std::string OpCommitRecord(uint32_t op_idx) {
  std::string rec(1, 'K');
  for (int i = 0; i < 4; ++i) {
    rec.push_back(static_cast<char>((op_idx >> (8 * i)) & 0xFF));
  }
  return rec;
}

uint32_t DecodeOpIdx(const std::string& rec) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(rec[1 + i]))
         << (8 * i);
  }
  return v;
}

uint32_t ReadWatermark(gom::Database* db, const CompanyDb& c) {
  return static_cast<uint32_t>(
      std::stoul(db->store()->GetString(c.watermark, "Name").value()));
}

// --- Child: live maintenance until SIGKILL --------------------------------

constexpr uint32_t kMaxChildOps = 400;
constexpr uint32_t kCheckpointEvery = 16;

// Runs in the forked child; must never return into gtest. Exit codes mark
// unexpected failures (0 is unreachable in practice — the parent kills us).
[[noreturn]] void ChildRun(const std::string& snapshot,
                           const std::string& iter_dir, const CompanyDb& c,
                           int progress_fd) {
  DiskOptions options = DiskOptions::File(iter_dir, /*mmap=*/false);
  options.durability = DurabilityMode::kGroup;
  options.flush_batch = 4;
  auto db_or = gom::Database::Open(snapshot, /*buffer_capacity=*/4, options);
  if (!db_or.ok()) _exit(10);
  std::unique_ptr<gom::Database> db = std::move(*db_or);
  if (!db->AttachWal(iter_dir + "/journal.wal").ok()) _exit(11);
  auto asr_or = AccessSupportRelation::Build(db->store(), CompanyPath(db.get(), c),
                                             ExtensionKind::kFull,
                                             Decomposition::Binary(3));
  if (!asr_or.ok()) _exit(12);
  std::unique_ptr<AccessSupportRelation> asr = std::move(*asr_or);
  // From here on, every journal transition also lands in the WAL.
  asr->mutable_journal()->AttachWal(db->wal());

  for (uint32_t op = 0; op < kMaxChildOps; ++op) {
    const EdgeTarget t = EdgeTargets(c)[op % 4];
    Result<bool> present =
        db->store()->SetContains(t.set, AsrKey::FromOid(t.w));
    if (!present.ok()) _exit(13);
    const bool insert = !*present;
    if (!db->wal()->Append(OpIntentRecord(op, insert)).ok()) _exit(14);
    if (!ApplyOp(db.get(), asr.get(), c, op, insert).ok()) _exit(15);
    if (!db->wal()->Append(OpCommitRecord(op)).ok()) _exit(16);
    if (!db->wal()->Sync().ok()) _exit(17);
    // The op is durable — only now is the parent told it happened.
    if (::write(progress_fd, "x", 1) != 1) _exit(18);
    if ((op + 1) % kCheckpointEvery == 0) {
      if (!db->store()
               ->SetString(c.watermark, "Name", std::to_string(op + 1))
               .ok()) {
        _exit(19);
      }
      if (!db->SaveDurable(iter_dir + "/ckpt.asrdb").ok()) _exit(20);
    }
  }
  _exit(0);
}

// --- Parent: reopen, recover, verify --------------------------------------

std::vector<AsrKey> Sorted(std::vector<AsrKey> keys) {
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<AsrKey> AnchorsAt(gom::Database* db, const CompanyDb& c,
                              uint32_t pos) {
  auto key = [](Oid o) { return AsrKey::FromOid(o); };
  switch (pos) {
    case 0:
      return {key(c.auto_div), key(c.truck_div), key(c.space_div)};
    case 1:
      return {key(c.sec560), key(c.mbtrak), key(c.sausage)};
    case 2:
      return {key(c.door), key(c.pepper)};
    default:
      return {db->store()->GetAttributeByName(c.door, "Name").value(),
              db->store()->GetAttributeByName(c.pepper, "Name").value()};
  }
}

void ExpectSameAnswers(gom::Database* want_db, AccessSupportRelation* want,
                       AccessSupportRelation* got, const CompanyDb& c,
                       const std::string& ctx) {
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = i + 1; j <= 3; ++j) {
      if (!want->SupportsQuery(i, j)) continue;
      for (AsrKey start : AnchorsAt(want_db, c, i)) {
        Result<std::vector<AsrKey>> w = want->EvalForward(start, i, j);
        Result<std::vector<AsrKey>> g = got->EvalForward(start, i, j);
        ASSERT_TRUE(w.ok()) << ctx << ": " << w.status().ToString();
        ASSERT_TRUE(g.ok()) << ctx << ": " << g.status().ToString();
        EXPECT_EQ(Sorted(*w), Sorted(*g))
            << ctx << ": fwd Q_{" << i << "," << j << "} diverges";
      }
      for (AsrKey target : AnchorsAt(want_db, c, j)) {
        Result<std::vector<AsrKey>> w = want->EvalBackward(target, i, j);
        Result<std::vector<AsrKey>> g = got->EvalBackward(target, i, j);
        ASSERT_TRUE(w.ok()) << ctx << ": " << w.status().ToString();
        ASSERT_TRUE(g.ok()) << ctx << ": " << g.status().ToString();
        EXPECT_EQ(Sorted(*w), Sorted(*g))
            << ctx << ": bwd Q_{" << i << "," << j << "} diverges";
      }
    }
  }
}

struct IterationOutcome {
  uint32_t ops_committed = 0;   // 'K' records found in the WAL
  uint32_t ops_replayed = 0;    // committed ops past the checkpoint
  bool used_checkpoint = false;
  bool needed_recovery = false;  // journal came back with unresolved intent
};

void VerifyAfterKill(const std::string& snapshot, const std::string& iter_dir,
                     const CompanyDb& c, const std::string& ctx,
                     IterationOutcome* outcome) {
  // (1) The checkpoint, if published, must open cleanly: SaveDurable's
  // atomic rename means there is no state in which a torn checkpoint exists
  // under the final name.
  std::string base = snapshot;
  const std::string ckpt = iter_dir + "/ckpt.asrdb";
  if (std::filesystem::exists(ckpt)) {
    ASSERT_TRUE(gom::Database::Open(ckpt).ok())
        << ctx << ": published checkpoint does not open";
    base = ckpt;
    outcome->used_checkpoint = true;
  }

  // (2) The WAL replays; SIGKILL can only tear the tail, never corrupt the
  // interior (each frame is one pwrite, appends are sequential).
  WriteAheadLog::ReplayStats stats;
  std::vector<std::string> records;
  {
    auto wal = WriteAheadLog::Open(
        iter_dir + "/journal.wal",
        [&](std::string_view payload) { records.emplace_back(payload); },
        &stats);
    ASSERT_TRUE(wal.ok()) << ctx << ": " << wal.status().ToString();
  }
  EXPECT_FALSE(stats.corrupt_suffix) << ctx;

  // (3) Reconstruct: checkpoint pages, then journal records, then committed
  // logical ops, then Recover() if anything is unresolved.
  auto open_and_replay = [&](bool with_journal,
                             std::unique_ptr<gom::Database>* db_out,
                             std::unique_ptr<AccessSupportRelation>* asr_out) {
    auto db = gom::Database::Open(base).value();
    auto asr = BuildAsr(db.get(), c);
    std::vector<std::pair<uint32_t, bool>> intents;  // op_idx -> direction
    std::vector<uint32_t> commits;
    for (const std::string& rec : records) {
      if (with_journal && asr->mutable_journal()->ApplyWalRecord(rec)) {
        continue;
      }
      if (rec.size() == 6 && rec[0] == 'O') {
        intents.emplace_back(DecodeOpIdx(rec), rec[5] != 0);
      } else if (rec.size() == 5 && rec[0] == 'K') {
        commits.push_back(DecodeOpIdx(rec));
      }
    }
    const uint32_t watermark = ReadWatermark(db.get(), c);
    uint32_t replayed = 0;
    for (const auto& [op_idx, insert] : intents) {
      if (std::find(commits.begin(), commits.end(), op_idx) == commits.end()) {
        continue;  // intent without commit: the op never happened
      }
      if (op_idx < watermark) continue;  // already inside the checkpoint
      Status st = ApplyOp(db.get(), asr.get(), c, op_idx, insert);
      ASSERT_TRUE(st.ok()) << ctx << ": replay op " << op_idx << ": "
                           << st.ToString();
      ++replayed;
    }
    // The replayed base state is re-established durable state, not
    // crash-lost cache: flush it down so Recover()'s DropAll (which models
    // losing RAM) cannot take the replayed mutations with it.
    ASSERT_TRUE(db->buffers()->FlushAll().ok()) << ctx;
    outcome->ops_committed = static_cast<uint32_t>(commits.size());
    if (with_journal) outcome->ops_replayed = replayed;
    *db_out = std::move(db);
    *asr_out = std::move(asr);
  };

  std::unique_ptr<gom::Database> rec_db, twin_db;
  std::unique_ptr<AccessSupportRelation> rec_asr, twin_asr;
  open_and_replay(/*with_journal=*/true, &rec_db, &rec_asr);
  if (::testing::Test::HasFatalFailure()) return;

  if (rec_asr->journal().unresolved() > 0) {
    outcome->needed_recovery = true;
#if ASR_METRICS_ENABLED
    const uint64_t events_before = obs::EventLog::Instance().total_recorded();
#endif
    RecoveryReport report;
    Status st = rec_asr->Recover(&report);
    ASSERT_TRUE(st.ok()) << ctx << ": " << st.ToString();
    EXPECT_EQ(rec_asr->journal().unresolved(), 0u) << ctx;
#if ASR_METRICS_ENABLED
    // The restart must leave an audit trail: recovery start and finish land
    // in the operational event journal.
    bool saw_start = false, saw_finish = false;
    for (const obs::Event& e : obs::EventLog::Instance().Snapshot()) {
      if (e.seq <= events_before) continue;
      saw_start |= e.kind == obs::EventKind::kRecoveryStart;
      saw_finish |= e.kind == obs::EventKind::kRecoveryFinish;
    }
    EXPECT_TRUE(saw_start && saw_finish)
        << ctx << ": Recover() left no recovery_start/recovery_finish events";
#endif
  }

  // (4) Post-recovery invariants: the full checker, semantic checks on.
  check::CheckReport check_report;
  check::InvariantChecker checker;
  checker.CheckAsr(rec_asr.get(), &check_report);
  EXPECT_TRUE(check_report.clean()) << ctx << "\n" << check_report.ToString();

  // (5) Answer-equality against the fault-free twin: same checkpoint, same
  // committed ops, no crash machinery.
  open_and_replay(/*with_journal=*/false, &twin_db, &twin_asr);
  if (::testing::Test::HasFatalFailure()) return;
  ExpectSameAnswers(twin_db.get(), twin_asr.get(), rec_asr.get(), c, ctx);
}

TEST(KillHarnessTest, RandomizedSigkillPointsRecoverToTwinEquality) {
  const char* env = std::getenv("ASR_KILL_POINTS");
  const int iterations = env != nullptr ? std::atoi(env) : 10;
  ASSERT_GT(iterations, 0);

  const std::string workdir =
      ::testing::TempDir() + "/kill_harness." + std::to_string(::getpid());
  std::filesystem::remove_all(workdir);
  ASSERT_TRUE(std::filesystem::create_directories(workdir));
  const std::string snapshot = workdir + "/base.asrdb";

  CompanyDb c;
  {
    auto db = gom::Database::Create();
    c = BuildCompany(db.get());
    ASSERT_TRUE(db->SaveDurable(snapshot).ok());
  }

  uint32_t kills = 0, recoveries = 0, checkpoints_used = 0;
  uint64_t total_committed = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    const std::string ctx = "iter " + std::to_string(iter);
    const std::string iter_dir = workdir + "/iter_" + std::to_string(iter);
    ASSERT_TRUE(std::filesystem::create_directories(iter_dir));
    // Deterministic per-iteration randomization: the kill lands after a
    // random number of committed ops, plus a microsecond jitter so it can
    // strike mid-append, mid-maintenance, or mid-checkpoint.
    std::mt19937 rng(0xC0FFEEu + static_cast<uint32_t>(iter));
    const uint32_t target_ops = 1 + rng() % 48;
    const useconds_t jitter_us = rng() % 2000;

    int pipefd[2];
    ASSERT_EQ(::pipe(pipefd), 0);
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(pipefd[0]);
      ChildRun(snapshot, iter_dir, c, pipefd[1]);  // never returns
    }
    ::close(pipefd[1]);
    uint32_t progressed = 0;
    char byte;
    while (progressed < target_ops) {
      ssize_t n = ::read(pipefd[0], &byte, 1);
      if (n == 1) {
        ++progressed;
      } else {
        break;  // EOF: the child died on its own
      }
    }
    if (progressed < target_ops) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      ::close(pipefd[0]);
      FAIL() << ctx << ": child exited early (status " << status
             << ") after " << progressed << " ops";
    }
    ::usleep(jitter_us);
    ASSERT_EQ(::kill(pid, SIGKILL), 0) << ctx;
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid) << ctx;
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << ctx << ": child was not killed (status " << status << ")";
    ::close(pipefd[0]);
    ++kills;

    IterationOutcome outcome;
    VerifyAfterKill(snapshot, iter_dir, c, ctx, &outcome);
    if (::testing::Test::HasFatalFailure()) return;
    // Durability floor: every op the parent saw progress for was sealed by
    // a synced 'K' record, so it must still be visible after the kill.
    EXPECT_GE(outcome.ops_committed, target_ops) << ctx;
    total_committed += outcome.ops_committed;
    recoveries += outcome.needed_recovery ? 1 : 0;
    checkpoints_used += outcome.used_checkpoint ? 1 : 0;

    std::filesystem::remove_all(iter_dir);
  }

  EXPECT_EQ(kills, static_cast<uint32_t>(iterations));
  EXPECT_GT(total_committed, 0u);
  ::testing::Test::RecordProperty("kills", static_cast<int>(kills));
  ::testing::Test::RecordProperty("recoveries", static_cast<int>(recoveries));
  ::testing::Test::RecordProperty("checkpoints_used",
                                  static_cast<int>(checkpoints_used));
  std::filesystem::remove_all(workdir);
}

// === Interleaved two-writer mode ===========================================

// Each writer owns a private chain hanging off the shared schema — fully
// disjoint object subgraphs, so the two anchored canonical ASRs never cover
// each other's edges and the §5.4 maintain-all contract stays satisfied
// per writer.
struct WriterChain {
  Oid division, prodset;
  Oid product_a, partset_a, part_a, part_b;  // part_b toggles at p=1
  Oid product_b, partset_b, part_c;          // product_b toggles at p=0
  Oid anchor;                                // singleton {division}
};

struct InterleavedDb {
  CompanyDb c;
  WriterChain chains[2];
};

InterleavedDb BuildInterleavedCompany(gom::Database* db) {
  InterleavedDb idb;
  idb.c = BuildCompany(db);
  gom::Schema& s = *db->schema();
  gom::ObjectStore& st = *db->store();
  TypeId division_set =
      s.DefineSetType("DivisionSET", idb.c.division).value();
  for (int k = 0; k < 2; ++k) {
    WriterChain& w = idb.chains[k];
    const std::string tag = std::to_string(k);
    w.division = st.CreateObject(idb.c.division).value();
    w.prodset = st.CreateSet(idb.c.prodset).value();
    w.product_a = st.CreateObject(idb.c.product).value();
    w.partset_a = st.CreateSet(idb.c.basepartset).value();
    w.part_a = st.CreateObject(idb.c.basepart).value();
    w.part_b = st.CreateObject(idb.c.basepart).value();
    w.product_b = st.CreateObject(idb.c.product).value();
    w.partset_b = st.CreateSet(idb.c.basepartset).value();
    w.part_c = st.CreateObject(idb.c.basepart).value();
    ASR_CHECK(st.SetString(w.division, "Name", "WDiv" + tag).ok());
    ASR_CHECK(st.SetRef(w.division, "Manufactures", w.prodset).ok());
    ASR_CHECK(st.AddToSet(w.prodset, AsrKey::FromOid(w.product_a)).ok());
    ASR_CHECK(st.SetString(w.product_a, "Name", "WProdA" + tag).ok());
    ASR_CHECK(st.SetRef(w.product_a, "Composition", w.partset_a).ok());
    ASR_CHECK(st.AddToSet(w.partset_a, AsrKey::FromOid(w.part_a)).ok());
    ASR_CHECK(st.SetString(w.part_a, "Name", "WPartA" + tag).ok());
    ASR_CHECK(st.SetString(w.part_b, "Name", "WPartB" + tag).ok());
    ASR_CHECK(st.SetString(w.product_b, "Name", "WProdB" + tag).ok());
    ASR_CHECK(st.SetRef(w.product_b, "Composition", w.partset_b).ok());
    ASR_CHECK(st.AddToSet(w.partset_b, AsrKey::FromOid(w.part_c)).ok());
    ASR_CHECK(st.SetString(w.part_c, "Name", "WPartC" + tag).ok());
    w.anchor = st.CreateSet(division_set).value();
    ASR_CHECK(st.AddToSet(w.anchor, AsrKey::FromOid(w.division)).ok());
  }
  return idb;
}

// Writer k's two toggled edges: op % 2 picks the p=1 edge (part_b into
// product_a's composition) or the p=0 edge (product_b into the prodset).
EdgeTarget WriterEdge(const WriterChain& w, uint32_t op_idx) {
  if (op_idx % 2 == 0) {
    return {w.partset_a, w.product_a, 1, w.part_b};
  }
  return {w.prodset, w.division, 0, w.product_b};
}

Status ApplyWriterOp(gom::Database* db, AccessSupportRelation* asr,
                     const WriterChain& w, uint32_t op_idx, bool insert) {
  const EdgeTarget t = WriterEdge(w, op_idx);
  const AsrKey key = AsrKey::FromOid(t.w);
  if (insert) {
    ASR_CHECK(db->store()->AddToSet(t.set, key).ok());
    return asr->OnEdgeInserted(t.u, t.p, key);
  }
  ASR_CHECK(db->store()->RemoveFromSet(t.set, key).ok());
  return asr->OnEdgeRemoved(t.u, t.p, key);
}

// Interleaved-mode harness records carry a trailing writer byte:
//   'O' [u32 op_idx][u8 insert][u8 writer]   intent      (7 bytes)
//   'K' [u32 op_idx][u8 writer]              commit+sync (6 bytes)
// Sizes are disjoint from the single-writer records (6/5), so a replayer
// can tell the modes apart from the bytes alone.

std::string WriterOpIntent(uint32_t op_idx, bool insert, uint8_t writer) {
  std::string rec = OpIntentRecord(op_idx, insert);
  rec.push_back(static_cast<char>(writer));
  return rec;
}

std::string WriterOpCommit(uint32_t op_idx, uint8_t writer) {
  std::string rec = OpCommitRecord(op_idx);
  rec.push_back(static_cast<char>(writer));
  return rec;
}

std::unique_ptr<AccessSupportRelation> BuildWriterAsr(gom::Database* db,
                                                      const WriterChain& w,
                                                      bool transactional) {
  AsrOptions options;
  options.anchor_collection = w.anchor;
  options.transactional = transactional;
  PathExpression path =
      PathExpression::Parse(*db->schema(),
                            db->schema()->FindType("Division").value(),
                            "Manufactures.Composition.Name")
          .value();
  return AccessSupportRelation::Build(db->store(), path,
                                      ExtensionKind::kCanonical,
                                      Decomposition::Binary(3), options)
      .value();
}

constexpr uint32_t kMaxWriterOps = 200;

// The forked child for interleaved mode: one MVCC-enabled database, two
// writer threads free-running their own transactional edge-toggle loops.
// Each writer journals to WAL stream (writer+1) and seals every logical op
// with a synced 'K' before reporting progress ('0'+writer on the pipe).
[[noreturn]] void InterleavedChildRun(const std::string& snapshot,
                                      const std::string& iter_dir,
                                      const InterleavedDb& idb,
                                      int progress_fd) {
  DiskOptions options = DiskOptions::File(iter_dir, /*mmap=*/false);
  options.durability = DurabilityMode::kGroup;
  options.flush_batch = 4;
  auto db_or = gom::Database::Open(snapshot, /*buffer_capacity=*/8, options);
  if (!db_or.ok()) _exit(30);
  std::unique_ptr<gom::Database> db = std::move(*db_or);
  if (!db->AttachWal(iter_dir + "/journal.wal").ok()) _exit(31);
  db->EnableMvcc();

  std::unique_ptr<AccessSupportRelation> asrs[2];
  for (int k = 0; k < 2; ++k) {
    asrs[k] = BuildWriterAsr(db.get(), idb.chains[k], /*transactional=*/true);
    if (asrs[k] == nullptr) _exit(32);
    asrs[k]->mutable_journal()->SetWalStream(static_cast<uint8_t>(k + 1));
    asrs[k]->mutable_journal()->AttachWal(db->wal());
  }

  std::thread writers[2];
  for (int k = 0; k < 2; ++k) {
    writers[k] = std::thread([&, k] {
      const WriterChain& w = idb.chains[k];
      AccessSupportRelation* asr = asrs[k].get();
      for (uint32_t op = 0; op < kMaxWriterOps; ++op) {
        const EdgeTarget t = WriterEdge(w, op);
        Result<bool> present =
            db->store()->SetContains(t.set, AsrKey::FromOid(t.w));
        if (!present.ok()) _exit(33);
        const bool insert = !*present;
        if (!db->wal()
                 ->Append(WriterOpIntent(op, insert,
                                         static_cast<uint8_t>(k)))
                 .ok()) {
          _exit(34);
        }
        if (!ApplyWriterOp(db.get(), asr, w, op, insert).ok()) _exit(35);
        if (!db->wal()
                 ->Append(WriterOpCommit(op, static_cast<uint8_t>(k)))
                 .ok()) {
          _exit(36);
        }
        if (!db->wal()->Sync().ok()) _exit(37);
        const char tag = static_cast<char>('0' + k);
        if (::write(progress_fd, &tag, 1) != 1) _exit(38);
      }
    });
  }
  for (int k = 0; k < 2; ++k) writers[k].join();
  _exit(0);
}

std::vector<AsrKey> WriterAnchorsAt(gom::Database* db, const WriterChain& w,
                                    uint32_t pos) {
  auto key = [](Oid o) { return AsrKey::FromOid(o); };
  switch (pos) {
    case 0:
      return {key(w.division)};
    case 1:
      return {key(w.product_a), key(w.product_b)};
    case 2:
      return {key(w.part_a), key(w.part_b), key(w.part_c)};
    default: {
      std::vector<AsrKey> names;
      for (Oid part : {w.part_a, w.part_b, w.part_c}) {
        names.push_back(
            db->store()->GetAttributeByName(part, "Name").value());
      }
      return names;
    }
  }
}

void ExpectSameWriterAnswers(gom::Database* want_db,
                             AccessSupportRelation* want,
                             AccessSupportRelation* got,
                             const WriterChain& w, const std::string& ctx) {
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = i + 1; j <= 3; ++j) {
      if (!want->SupportsQuery(i, j)) continue;
      for (AsrKey start : WriterAnchorsAt(want_db, w, i)) {
        Result<std::vector<AsrKey>> a = want->EvalForward(start, i, j);
        Result<std::vector<AsrKey>> b = got->EvalForward(start, i, j);
        ASSERT_TRUE(a.ok() && b.ok()) << ctx;
        EXPECT_EQ(Sorted(*a), Sorted(*b))
            << ctx << ": fwd Q_{" << i << "," << j << "} diverges";
      }
      for (AsrKey target : WriterAnchorsAt(want_db, w, j)) {
        Result<std::vector<AsrKey>> a = want->EvalBackward(target, i, j);
        Result<std::vector<AsrKey>> b = got->EvalBackward(target, i, j);
        ASSERT_TRUE(a.ok() && b.ok()) << ctx;
        EXPECT_EQ(Sorted(*a), Sorted(*b))
            << ctx << ": bwd Q_{" << i << "," << j << "} diverges";
      }
    }
  }
}

struct InterleavedOutcome {
  uint32_t ops_committed[2] = {0, 0};
  uint32_t recoveries = 0;  // writers whose journal needed Recover()
};

void VerifyInterleavedAfterKill(const std::string& snapshot,
                                const std::string& iter_dir,
                                const InterleavedDb& idb,
                                const std::string& ctx,
                                InterleavedOutcome* outcome) {
  // The WAL is the only surviving artifact (no checkpoints in this mode);
  // SIGKILL may tear its tail but never corrupt the interior.
  WriteAheadLog::ReplayStats stats;
  std::vector<std::string> records;
  {
    auto wal = WriteAheadLog::Open(
        iter_dir + "/journal.wal",
        [&](std::string_view payload) { records.emplace_back(payload); },
        &stats);
    ASSERT_TRUE(wal.ok()) << ctx << ": " << wal.status().ToString();
  }
  EXPECT_FALSE(stats.corrupt_suffix) << ctx;

  // Reconstruct one shared base + both ASRs: journal records route to their
  // stream's journal, harness records replay the committed logical ops.
  auto open_and_replay =
      [&](bool with_journal, std::unique_ptr<gom::Database>* db_out,
          std::unique_ptr<AccessSupportRelation>* asr0_out,
          std::unique_ptr<AccessSupportRelation>* asr1_out) {
        auto db = gom::Database::Open(snapshot).value();
        std::unique_ptr<AccessSupportRelation> asrs[2];
        for (int k = 0; k < 2; ++k) {
          asrs[k] = BuildWriterAsr(db.get(), idb.chains[k],
                                   /*transactional=*/false);
          if (with_journal) {
            asrs[k]->mutable_journal()->SetWalStream(
                static_cast<uint8_t>(k + 1));
          }
        }
        struct PendingOp {
          uint8_t writer;
          uint32_t op_idx;
          bool insert;
        };
        std::vector<PendingOp> intents;
        std::vector<uint32_t> commits[2];
        for (const std::string& rec : records) {
          if (with_journal &&
              (asrs[0]->mutable_journal()->ApplyWalRecord(rec) ||
               asrs[1]->mutable_journal()->ApplyWalRecord(rec))) {
            continue;
          }
          if (rec.size() == 7 && rec[0] == 'O') {
            const uint8_t writer = static_cast<uint8_t>(rec[6]);
            if (writer < 2) {
              intents.push_back({writer, DecodeOpIdx(rec), rec[5] != 0});
            }
          } else if (rec.size() == 6 && rec[0] == 'K') {
            const uint8_t writer = static_cast<uint8_t>(rec[5]);
            if (writer < 2) commits[writer].push_back(DecodeOpIdx(rec));
          }
        }
        for (const PendingOp& op : intents) {
          if (std::find(commits[op.writer].begin(), commits[op.writer].end(),
                        op.op_idx) == commits[op.writer].end()) {
            continue;  // intent without commit: the op never happened
          }
          Status st = ApplyWriterOp(db.get(), asrs[op.writer].get(),
                                    idb.chains[op.writer], op.op_idx,
                                    op.insert);
          ASSERT_TRUE(st.ok()) << ctx << ": replay writer "
                               << int{op.writer} << " op " << op.op_idx
                               << ": " << st.ToString();
        }
        ASSERT_TRUE(db->buffers()->FlushAll().ok()) << ctx;
        outcome->ops_committed[0] = static_cast<uint32_t>(commits[0].size());
        outcome->ops_committed[1] = static_cast<uint32_t>(commits[1].size());
        *db_out = std::move(db);
        *asr0_out = std::move(asrs[0]);
        *asr1_out = std::move(asrs[1]);
      };

  std::unique_ptr<gom::Database> rec_db, twin_db;
  std::unique_ptr<AccessSupportRelation> rec_asr[2], twin_asr[2];
  open_and_replay(true, &rec_db, &rec_asr[0], &rec_asr[1]);
  if (::testing::Test::HasFatalFailure()) return;
  open_and_replay(false, &twin_db, &twin_asr[0], &twin_asr[1]);
  if (::testing::Test::HasFatalFailure()) return;

  for (int k = 0; k < 2; ++k) {
    const std::string wctx = ctx + " writer " + std::to_string(k);
    if (rec_asr[k]->journal().unresolved() > 0) {
      ++outcome->recoveries;
      RecoveryReport report;
      Status st = rec_asr[k]->Recover(&report);
      ASSERT_TRUE(st.ok()) << wctx << ": " << st.ToString();
      EXPECT_EQ(rec_asr[k]->journal().unresolved(), 0u) << wctx;
    }
    check::CheckReport check_report;
    check::InvariantChecker checker;
    checker.CheckAsr(rec_asr[k].get(), &check_report);
    EXPECT_TRUE(check_report.clean())
        << wctx << "\n" << check_report.ToString();
    ExpectSameWriterAnswers(twin_db.get(), twin_asr[k].get(),
                            rec_asr[k].get(), idb.chains[k], wctx);
  }
}

TEST(KillHarnessTest, InterleavedWritersRecoverToTwinEquality) {
  const char* env = std::getenv("ASR_KILL_POINTS");
  const int iterations = env != nullptr ? std::atoi(env) : 10;
  ASSERT_GT(iterations, 0);

  const std::string workdir = ::testing::TempDir() + "/kill_interleaved." +
                              std::to_string(::getpid());
  std::filesystem::remove_all(workdir);
  ASSERT_TRUE(std::filesystem::create_directories(workdir));
  const std::string snapshot = workdir + "/base.asrdb";

  InterleavedDb idb;
  {
    auto db = gom::Database::Create();
    idb = BuildInterleavedCompany(db.get());
    ASSERT_TRUE(db->SaveDurable(snapshot).ok());
  }

  uint32_t kills = 0, recoveries = 0;
  uint64_t total_committed = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    const std::string ctx = "interleaved iter " + std::to_string(iter);
    const std::string iter_dir = workdir + "/iter_" + std::to_string(iter);
    ASSERT_TRUE(std::filesystem::create_directories(iter_dir));
    std::mt19937 rng(0xBADC0DEu + static_cast<uint32_t>(iter));
    const uint32_t target_ops = 2 + rng() % 60;  // across both writers
    const useconds_t jitter_us = rng() % 2000;

    int pipefd[2];
    ASSERT_EQ(::pipe(pipefd), 0);
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(pipefd[0]);
      InterleavedChildRun(snapshot, iter_dir, idb, pipefd[1]);
    }
    ::close(pipefd[1]);
    uint32_t progressed[2] = {0, 0};
    char byte;
    while (progressed[0] + progressed[1] < target_ops) {
      ssize_t n = ::read(pipefd[0], &byte, 1);
      if (n != 1) break;  // EOF: the child died on its own
      if (byte == '0' || byte == '1') ++progressed[byte - '0'];
    }
    if (progressed[0] + progressed[1] < target_ops) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      ::close(pipefd[0]);
      FAIL() << ctx << ": child exited early (status " << status << ") after "
             << progressed[0] << "+" << progressed[1] << " ops";
    }
    ::usleep(jitter_us);
    ASSERT_EQ(::kill(pid, SIGKILL), 0) << ctx;
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid) << ctx;
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << ctx << ": child was not killed (status " << status << ")";
    ::close(pipefd[0]);
    ++kills;

    InterleavedOutcome outcome;
    VerifyInterleavedAfterKill(snapshot, iter_dir, idb, ctx, &outcome);
    if (::testing::Test::HasFatalFailure()) return;
    // Durability floor, per writer: every op whose progress byte the parent
    // saw was sealed with a synced 'K' record first.
    EXPECT_GE(outcome.ops_committed[0], progressed[0]) << ctx;
    EXPECT_GE(outcome.ops_committed[1], progressed[1]) << ctx;
    total_committed += outcome.ops_committed[0] + outcome.ops_committed[1];
    recoveries += outcome.recoveries;

    std::filesystem::remove_all(iter_dir);
  }

  EXPECT_EQ(kills, static_cast<uint32_t>(iterations));
  EXPECT_GT(total_committed, 0u);
  ::testing::Test::RecordProperty("kills", static_cast<int>(kills));
  ::testing::Test::RecordProperty("writer_recoveries",
                                  static_cast<int>(recoveries));
  std::filesystem::remove_all(workdir);
}

}  // namespace
}  // namespace asr
