// Maintenance intent journal: crash-consistency bookkeeping for ins_i/del_i.
//
// Every incremental maintenance operation (§6) and rebuild logs its intent
// here BEFORE touching the partition B+ trees and commits it after the last
// tree update was durably written. The journal is the write-ahead half of
// the recovery protocol:
//
//   pending    intent logged, tree updates possibly half-applied
//   committed  every tree write of the operation reached the disk
//   lost       the operation's write-back failed (simulated crash): its tree
//              updates are partially or wholly gone
//   recovered  a pending/lost entry resolved by Recover() re-deriving the
//              affected partitions from the object base
//
// After a crash, a clean journal (no pending/lost entries) plus passing
// physical triage means the ASR state on disk is exactly the committed
// prefix — the fast path. Any unresolved entry forces re-derivation: the
// object base is updated before maintenance runs, so the base is always
// authoritative and "replay" and "roll back" coincide in recomputing the
// extension from it (the redundancy argument of Defs. 3.3-3.8).
//
// The in-memory deque is the working state; persistence is optional and
// layered: AttachWal() hooks a storage::WriteAheadLog so every intent,
// commit, lost and recovered transition is also appended as a CRC-framed
// record, with fdatasync at the commit points (commit, lost, recovered —
// the transitions recovery decisions hang off; the intent append itself
// rides to the platter with the next commit's sync, which is safe because
// the object base is authoritative and an unlogged intent just means the op
// never happened). After a real process death the records are replayed
// through ApplyWalRecord() to reconstruct the pre-crash journal — a
// trailing intent with no commit resurfaces as pending and forces
// Recover(). Without an attached WAL the journal behaves exactly as before:
// the protocol drill on the simulated-fault matrix needs no file.
#ifndef ASR_ASR_JOURNAL_H_
#define ASR_ASR_JOURNAL_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>

#include "common/asr_key.h"
#include "common/macros.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "storage/wal.h"

namespace asr {

enum class MaintOp {
  kEdgeInsert,
  kEdgeRemove,
  kRebuild,
};

const char* MaintOpName(MaintOp op);

enum class JournalState {
  kPending,
  kCommitted,
  kLost,
  kRecovered,
  // Resolved with no effect: a transactional operation lost a commit-time
  // conflict and rolled back cleanly. Unlike kLost, nothing on disk is in
  // doubt, so an aborted entry carries no recovery obligation.
  kAborted,
};

const char* JournalStateName(JournalState state);

struct JournalEntry {
  uint64_t seq = 0;
  MaintOp op = MaintOp::kEdgeInsert;
  // Edge operations: u at path position p gains/loses the edge to w.
  Oid u;
  uint32_t p = 0;
  AsrKey w;
  JournalState state = JournalState::kPending;
};

class MaintenanceJournal {
 public:
  // Retained resolved-entry history; older resolved entries are truncated
  // (an unresolved entry is never dropped).
  static constexpr size_t kMaxResolved = 256;

  // Logs an intent; returns its sequence number.
  uint64_t BeginEdge(MaintOp op, Oid u, uint32_t p, AsrKey w);
  uint64_t BeginRebuild();

  // Resolution of the entry `seq` (must be pending).
  void Commit(uint64_t seq);
  void MarkLost(uint64_t seq);
  // Clean no-effect resolution: the operation aborted (transactional
  // conflict) with every staged write discarded — the disk never saw it, so
  // recovery owes it nothing.
  void MarkAborted(uint64_t seq);

  // Recover() resolved every outstanding intent by re-deriving from the
  // object base; returns how many entries it covered.
  uint64_t MarkAllRecovered();

  // --- Persistence (optional) --------------------------------------------
  // Attaches `wal` (borrowed; nullptr detaches): every subsequent
  // transition is appended as a record, with fdatasync at commit points.
  // Setup-time call; attach before maintenance threads start.
  void AttachWal(storage::WriteAheadLog* wal) { wal_ = wal; }
  storage::WriteAheadLog* wal() const { return wal_; }

  // Stream id for multi-journal WALs: several ASRs (one journal each, e.g.
  // one per writer) can share one log file when each journal tags its
  // records with a distinct nonzero stream. Stream 0 — the default — writes
  // the exact legacy record format, byte-identical to a single-journal log;
  // a nonzero stream appends one trailing id byte to every record, and
  // ApplyWalRecord() accepts only records of its own stream (foreign streams
  // report false so the sibling journal can claim them). Setup-time call,
  // like AttachWal.
  void SetWalStream(uint8_t stream) { stream_ = stream; }
  uint8_t wal_stream() const { return stream_; }

  // Applies one record replayed from a WAL to reconstruct pre-crash state
  // (never appends). Returns true when the payload was a journal record;
  // false lets callers route foreign record types (e.g. an application's
  // own redo records sharing the log) to their own handlers.
  bool ApplyWalRecord(std::string_view payload);

  // First WAL append/sync failure since attach (sticky). The in-memory
  // protocol proceeds regardless — a lost log entry is recovered from the
  // authoritative base like a lost page write.
  Status wal_error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return wal_error_;
  }

  // Entries still pending or lost — the dirty signal for recovery.
  uint64_t unresolved() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_ + lost_;
  }
  uint64_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_;
  }
  uint64_t lost() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lost_;
  }
  uint64_t committed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return committed_;
  }
  uint64_t aborted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return aborted_;
  }
  uint64_t recovered() const {
    std::lock_guard<std::mutex> lock(mu_);
    return recovered_;
  }
  uint64_t next_seq() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_seq_;
  }

  // Snapshot copy: the deque mutates under concurrent maintenance, so
  // callers get a stable view instead of a reference into guarded state.
  std::deque<JournalEntry> entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_;
  }

  std::string ToString() const;
  void ExportMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix) const;

 private:
  JournalEntry* Find(uint64_t seq) ASR_REQUIRES(mu_);
  uint64_t Append(JournalEntry entry) ASR_REQUIRES(mu_);
  void TruncateResolved() ASR_REQUIRES(mu_);
  // Appends `record` to the attached WAL (no-op when detached), tagging it
  // with the stream byte when this journal writes a nonzero stream; `sync`
  // adds the fdatasync commit point. Failures stick in wal_error_. Lock
  // order: the journal lock is held across the WAL call (journal -> wal,
  // never the reverse).
  void AppendWal(std::string record, bool sync) ASR_REQUIRES(mu_);

  // One lock for the whole protocol state: intent, resolution, and the WAL
  // append are a single atomic transition — the precondition for the
  // ROADMAP's multi-writer ASR maintenance.
  mutable std::mutex mu_;
  std::deque<JournalEntry> entries_ ASR_GUARDED_BY(mu_);
  uint64_t next_seq_ ASR_GUARDED_BY(mu_) = 1;
  uint64_t pending_ ASR_GUARDED_BY(mu_) = 0;
  uint64_t lost_ ASR_GUARDED_BY(mu_) = 0;
  uint64_t committed_ ASR_GUARDED_BY(mu_) = 0;
  uint64_t recovered_ ASR_GUARDED_BY(mu_) = 0;
  uint64_t aborted_ ASR_GUARDED_BY(mu_) = 0;
  storage::WriteAheadLog* wal_ = nullptr;  // set at attach time, then stable
  uint8_t stream_ = 0;                     // set at attach time, then stable
  Status wal_error_ ASR_GUARDED_BY(mu_);
};

}  // namespace asr

#endif  // ASR_ASR_JOURNAL_H_
