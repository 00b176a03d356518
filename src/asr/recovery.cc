// Crash recovery, quarantine, and degrade-to-navigation for ASRs.
//
// The paper's redundancy argument (Defs. 3.3-3.8, Thm 3.9) is that an ASR
// adds no information to the object base — every partition is a projection
// of an extension derivable from the base alone. Recovery leans on exactly
// that: after a simulated crash, partitions are triaged physically
// (checksums, tree structure, forward/backward agreement); if anything is
// unresolved or damaged, the extension is recomputed from the base — the
// base is updated BEFORE maintenance runs, so it is authoritative and
// replaying pending intents and rolling back half-applied ones coincide.
// Healthy trees are patched by slice diff; damaged ones are quarantined and
// their path slice answered by object-base navigation (correct answers,
// navigation page counts) until Repair() bulk-rebuilds them.
#include <algorithm>
#include <utility>

#include "asr/access_support_relation.h"
#include "asr/query.h"
#include "obs/events.h"
#include "obs/span.h"

namespace asr {

std::string RecoveryReport::ToString() const {
  std::string out = "recovery: ";
  out += clean ? "clean" : "dirty";
  out += " checked=" + std::to_string(partitions_checked);
  out += " quarantined=" + std::to_string(partitions_quarantined);
  out += " reconciled=" + std::to_string(partitions_reconciled);
  out += " repaired=" + std::to_string(partitions_repaired);
  out += " journal_resolved=" + std::to_string(journal_resolved);
  out += " rows_recomputed=" + std::to_string(rows_recomputed);
  out += " slices(+" + std::to_string(slices_inserted) + "/-" +
         std::to_string(slices_erased) + ")";
  return out;
}

Status PartitionStore::RebuildTrees(double fill_factor) {
  std::vector<rel::Row> slices;
  slices.reserve(refcounts.size());
  for (const auto& [slice, count] : refcounts) slices.push_back(slice);
  forward = std::make_unique<btree::BTree>(buffers, name + ":fwd", width, 0);
  backward =
      std::make_unique<btree::BTree>(buffers, name + ":bwd", width, width - 1);
  ASR_RETURN_IF_ERROR(forward->BulkLoad(slices, fill_factor));
  ASR_RETURN_IF_ERROR(backward->BulkLoad(std::move(slices), fill_factor));
  quarantined = false;
  return Status::OK();
}

bool AccessSupportRelation::degraded() const {
  return quarantined_count() > 0;
}

size_t AccessSupportRelation::quarantined_count() const {
  size_t count = 0;
  for (const Partition& part : partitions_) {
    if (part.store->quarantined) ++count;
  }
  return count;
}

bool AccessSupportRelation::AnyWriteError() const {
  if (store_->buffers()->has_write_error()) return true;
  for (const Partition& part : partitions_) {
    if (part.store->private_buffers != nullptr &&
        part.store->private_buffers->has_write_error()) {
      return true;
    }
  }
  return false;
}

Status AccessSupportRelation::TriagePartitionStore(PartitionStore* store) {
  storage::Disk* disk = store->buffers->disk();
  // Checksums first: a torn page must be caught before any tree walk pins
  // it (Pin on a checksum-failing page aborts by contract).
  ASR_RETURN_IF_ERROR(disk->VerifySegment(store->forward->segment()));
  ASR_RETURN_IF_ERROR(disk->VerifySegment(store->backward->segment()));
  ASR_RETURN_IF_ERROR(store->forward->CheckIntegrity());
  ASR_RETURN_IF_ERROR(store->backward->CheckIntegrity());
  if (store->forward->tuple_count() != store->backward->tuple_count()) {
    return Status::Corruption(
        store->name + ": forward tree holds " +
        std::to_string(store->forward->tuple_count()) + " tuples, backward " +
        std::to_string(store->backward->tuple_count()));
  }
  // Lost writes keep old content with a valid checksum, so cross-structure
  // agreement is the check that actually catches them (§5.2 redundancy).
  std::set<rel::Row> fwd_rows;
  std::set<rel::Row> bwd_rows;
  ASR_RETURN_IF_ERROR(
      store->forward->ScanAll([&](const rel::Row& row) -> Status {
        fwd_rows.insert(row);
        return Status::OK();
      }));
  ASR_RETURN_IF_ERROR(
      store->backward->ScanAll([&](const rel::Row& row) -> Status {
        bwd_rows.insert(row);
        return Status::OK();
      }));
  if (fwd_rows != bwd_rows) {
    return Status::Corruption(store->name +
                              ": forward and backward trees disagree");
  }
  return Status::OK();
}

namespace {

bool SliceAllNull(const rel::Row& slice) {
  for (AsrKey k : slice) {
    if (!k.IsNull()) return false;
  }
  return true;
}

// This ASR's contribution to a [first..last] partition store: every
// projected slice with its multiplicity over `rows`.
std::map<rel::Row, uint32_t> ProjectContribution(const std::set<rel::Row>& rows,
                                                 uint32_t first,
                                                 uint32_t last) {
  std::map<rel::Row, uint32_t> contrib;
  for (const rel::Row& row : rows) {
    rel::Row slice(row.begin() + first, row.begin() + last + 1);
    if (SliceAllNull(slice)) continue;
    ++contrib[std::move(slice)];
  }
  return contrib;
}

// Makes `tree` hold exactly the keys of `refcounts` (healthy-tree patch-up;
// every insert/erase is a normal metered descent).
Status ReconcileTree(btree::BTree* tree,
                     const std::map<rel::Row, uint32_t>& refcounts,
                     uint64_t* inserted, uint64_t* erased) {
  std::set<rel::Row> stored;
  ASR_RETURN_IF_ERROR(tree->ScanAll([&](const rel::Row& row) -> Status {
    stored.insert(row);
    return Status::OK();
  }));
  for (const rel::Row& row : stored) {
    if (refcounts.find(row) == refcounts.end()) {
      tree->Erase(row);
      ++*erased;
    }
  }
  for (const auto& [slice, count] : refcounts) {
    if (stored.find(slice) == stored.end()) {
      tree->Insert(slice);
      ++*inserted;
    }
  }
  return Status::OK();
}

}  // namespace

Status AccessSupportRelation::Recover(RecoveryReport* report_out) {
  RecoveryReport scratch;
  RecoveryReport& report = report_out != nullptr ? *report_out : scratch;
  report = RecoveryReport{};
  recoveries_.Inc();
  obs::ScopedSpan span("recover");
  ASR_EVENT(obs::EventKind::kRecoveryStart,
            "unresolved=" + std::to_string(journal_.unresolved()) +
                " partitions=" + std::to_string(partitions_.size()));

  // Restart point: torn sectors become visible, the injector disarms, and
  // every cached frame — RAM that did not survive the crash — is dropped
  // (which also clears the pools' sticky write errors).
  store_->buffers()->disk()->RecoverFromCrash();
  store_->buffers()->DropAll();
  for (Partition& part : partitions_) {
    if (part.store->private_buffers != nullptr) {
      part.store->private_buffers->DropAll();
    }
  }

  // Physical triage.
  bool any_damage = false;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    Partition& part = partitions_[p];
    ++report.partitions_checked;
    Status st = TriagePartitionStore(part.store.get());
    part.store->quarantined = !st.ok();
    if (part.store->quarantined) {
      ++report.partitions_quarantined;
      any_damage = true;
      ASR_EVENT(obs::EventKind::kPartitionQuarantine,
                "partition=" + std::to_string(p) +
                    " phase=triage reason=" + st.message());
    }
  }

  if (journal_.unresolved() == 0 && !any_damage) {
    report.clean = true;
    if (span.active()) span.Attr("clean", uint64_t{1});
    ASR_EVENT(obs::EventKind::kRecoveryFinish, "clean=1");
    return ParanoidValidate();
  }

  // Dirty path: re-derive the extension from the object base.
  Result<rel::Relation> extension =
      ComputeExtension(store_, path_, kind_, options_.drop_set_columns,
                       options_.anchor_collection);
  ASR_RETURN_IF_ERROR(extension.status());
  report.rows_recomputed = extension->rows().size();
  std::set<rel::Row> old_rows;
  old_rows.swap(full_rows_);
  for (const rel::Row& row : extension->rows()) full_rows_.insert(row);

  for (size_t p = 0; p < partitions_.size(); ++p) {
    Partition& part = partitions_[p];
    std::map<rel::Row, uint32_t> fresh =
        ProjectContribution(full_rows_, part.first, part.last);
    if (part.store->owners <= 1) {
      part.store->refcounts = std::move(fresh);
    } else {
      // Shared store (§5.4): swap this ASR's contribution, leave sibling
      // slices and counts untouched. The refcounts live in memory and
      // survived the page-write crash together with full_rows_, so the old
      // contribution is exactly the projection of the old row set.
      std::map<rel::Row, uint32_t> stale =
          ProjectContribution(old_rows, part.first, part.last);
      for (const auto& [slice, count] : stale) {
        auto it = part.store->refcounts.find(slice);
        if (it == part.store->refcounts.end()) continue;
        if (it->second <= count) {
          part.store->refcounts.erase(it);
        } else {
          it->second -= count;
        }
      }
      for (const auto& [slice, count] : fresh) {
        part.store->refcounts[slice] += count;
      }
    }
    if (part.store->quarantined) continue;  // Repair() rebuilds the trees
    uint64_t inserted = 0;
    uint64_t erased = 0;
    Status st = ReconcileTree(part.store->forward.get(),
                              part.store->refcounts, &inserted, &erased);
    if (st.ok()) {
      st = ReconcileTree(part.store->backward.get(), part.store->refcounts,
                         &inserted, &erased);
    }
    // ReconcileTree "succeeds" even when its tree writes never reach the
    // disk — eviction failures park in the pool's sticky error (the pool was
    // drained by DropAll above, so anything there now came from reconcile).
    if (st.ok() && part.store->buffers->has_write_error()) {
      st = part.store->buffers->write_error();
    }
    if (!st.ok()) {
      // The reconcile could not be persisted (e.g. the backend demoted
      // itself to read-only after a permanent write failure): the trees are
      // untrusted, so quarantine the partition and let degraded navigation
      // answer its slice. Recovery itself still completes.
      part.store->quarantined = true;
      ++report.partitions_quarantined;
      ASR_EVENT(obs::EventKind::kPartitionQuarantine,
                "partition=" + std::to_string(p) +
                    " phase=reconcile reason=" + st.message());
      continue;
    }
    if (inserted + erased > 0) ++report.partitions_reconciled;
    report.slices_inserted += inserted;
    report.slices_erased += erased;
  }

  report.journal_resolved = journal_.MarkAllRecovered();
  ASR_EVENT(obs::EventKind::kRecoveryFinish,
            "clean=0 quarantined=" +
                std::to_string(report.partitions_quarantined) +
                " rows_recomputed=" + std::to_string(report.rows_recomputed) +
                " journal_resolved=" +
                std::to_string(report.journal_resolved));
  if (span.active()) {
    span.Attr("quarantined", static_cast<uint64_t>(
                                 report.partitions_quarantined));
    span.Attr("rows_recomputed", report.rows_recomputed);
    span.Attr("journal_resolved", report.journal_resolved);
  }
  return ValidateStructure();
}

Status AccessSupportRelation::Repair(RecoveryReport* report_out) {
  RecoveryReport scratch;
  RecoveryReport& report = report_out != nullptr ? *report_out : scratch;
  obs::ScopedSpan span("repair");
  uint32_t repaired = 0;
  for (Partition& part : partitions_) {
    if (!part.store->quarantined) continue;
    repairs_.Inc();
    Status st = part.store->RebuildTrees(options_.fill_factor);
    if (st.ok() && part.store->buffers->has_write_error()) {
      st = part.store->buffers->write_error();
    }
    if (!st.ok()) {
      // Repair needs a writable backend; keep the store quarantined (its
      // slice still answers via navigation) and surface why.
      part.store->quarantined = true;
      return st;
    }
    ++repaired;
  }
  report.partitions_repaired += repaired;
  if (span.active()) span.Attr("repaired", static_cast<uint64_t>(repaired));
  if (repaired == 0) return Status::OK();
  return ValidateStructure();
}

// --- Degraded navigation ---------------------------------------------------

int AccessSupportRelation::PositionOfColumn(uint32_t col) const {
  if (options_.drop_set_columns) {
    return col <= path_.n() ? static_cast<int>(col) : -1;
  }
  for (uint32_t q = 0; q <= path_.n(); ++q) {
    if (path_.ColumnOfPosition(q) == col) return static_cast<int>(q);
  }
  return -1;
}

size_t AccessSupportRelation::StretchEnd(const HopPlan& plan, size_t h) const {
  // A hop leaving a set-instance column continues a stretch that began
  // earlier; the executor reaches it only when that stretch was healthy.
  if (PositionOfColumn(plan.hops[h].from_col) < 0) return h;
  size_t end = h;
  bool quarantined = false;
  do {
    quarantined |= partitions_[plan.hops[end].partition].store->quarantined;
  } while (PositionOfColumn(plan.hops[end++].to_col) < 0);
  return quarantined ? end : h;
}

Result<std::unordered_set<AsrKey>> AccessSupportRelation::Navigate(
    QueryDir dir, const std::unordered_set<AsrKey>& frontier,
    uint32_t from_col, uint32_t to_col) {
  const bool forward = dir == QueryDir::kForward;
  const int i = PositionOfColumn(forward ? from_col : to_col);
  const int j = PositionOfColumn(forward ? to_col : from_col);
  ASR_CHECK(i >= 0 && j >= 0);
  // An anchored ASR (§3) materializes only paths originating in C; the
  // navigation fallback filters its position-0 keys the same way.
  const bool anchored = i == 0 && !options_.anchor_collection.IsNull();
  auto keep_anchored = [&](std::vector<AsrKey>* keys) -> Status {
    std::vector<AsrKey> kept;
    for (AsrKey key : *keys) {
      Result<bool> member =
          store_->SetContains(options_.anchor_collection, key);
      ASR_RETURN_IF_ERROR(member.status());
      if (*member) kept.push_back(key);
    }
    *keys = std::move(kept);
    return Status::OK();
  };
  std::vector<AsrKey> keys(frontier.begin(), frontier.end());
  if (anchored && forward) ASR_RETURN_IF_ERROR(keep_anchored(&keys));
  QueryEvaluator nav(store_, &path_);
  Result<std::vector<AsrKey>> reached =
      forward ? nav.Forward(std::move(keys), i, j) : nav.Backward(keys, i, j);
  ASR_RETURN_IF_ERROR(reached.status());
  if (anchored && !forward) ASR_RETURN_IF_ERROR(keep_anchored(&*reached));
  return std::unordered_set<AsrKey>(reached->begin(), reached->end());
}

}  // namespace asr
