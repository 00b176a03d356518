// Access support relations: materialized path extensions stored in pairs of
// B+ trees, with supported query evaluation and incremental maintenance.
//
// For a chosen extension (Defs. 3.4-3.7) and decomposition (Def. 3.8), every
// partition E^{i,j} is stored in two redundant B+ trees — clustered on its
// first and on its last column (§5.2) — so that partial paths can be chased
// forward and backward with one cluster lookup per partition. Queries whose
// entry column is not a partition boundary must inspect every page of the
// covering partition, exactly the ap term of the analytical model (Eq. 33).
#ifndef ASR_ASR_ACCESS_SUPPORT_RELATION_H_
#define ASR_ASR_ACCESS_SUPPORT_RELATION_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "asr/decomposition.h"
#include "asr/extension.h"
#include "asr/hop_plan.h"
#include "asr/journal.h"
#include "asr/path_expression.h"
#include "btree/btree.h"
#include "common/status.h"
#include "gom/object_store.h"
#include "obs/metrics.h"
#include "rel/relation.h"

namespace asr {

class AsrSnapshot;

struct AsrOptions {
  // Drop set-instance OID columns (the paper's no-set-sharing
  // simplification, §3): the relation then has arity n+1 and incremental
  // maintenance is available. With false, set columns are retained (arity
  // n+k+1) and updates require a rebuild.
  bool drop_set_columns = true;

  // Anchor the path at a particular collection C of t_0 elements instead of
  // the whole extent — the alternative §3 mentions ("we could have chosen a
  // particular collection C of elements of type t0 as the anchor"). When
  // set, only paths originating in members of this set/list instance are
  // materialized. Membership changes of C require Rebuild(); edge
  // maintenance within the paths stays incremental.
  Oid anchor_collection = Oid::Null();

  // --- Build pipeline (beyond the paper) ---------------------------------
  // Materialize fresh partition stores by sorted bulk load: slice the
  // full-width row set per partition, sort by the clustered column, and
  // pack both B+ trees bottom-up — no descents, no splits, each page
  // written once. Contents are identical to tuple-at-a-time loading; only
  // build cost changes. The tuple-at-a-time path is kept for metering
  // comparisons (bench/bulkload_bench).
  bool bulk_load = true;

  // Leaf fill fraction for bulk-loaded trees (1.0 packs leaves completely).
  double fill_factor = btree::BTree::kDefaultFillFactor;

  // Worker threads for partition builds. With > 1, every fresh partition
  // store gets a private BufferManager over its own disk segments and the
  // partitions bulk-build concurrently; shared and pre-existing stores are
  // always loaded serially. 1 = build in the calling thread (metered runs
  // stay single-threaded and bit-identical).
  uint32_t build_threads = 1;

  // --- Transactional maintenance (beyond the paper) ----------------------
  // Route every edge-maintenance operation through a page transaction
  // (storage/mvcc.h): tree writes stage privately, commit as one epoch, and
  // roll back cleanly on failure. Enables multi-writer maintenance of ASRs
  // over disjoint partitions (writers sharing a partition store serialize on
  // its claim) and OpenSnapshot() readers that see a consistent committed
  // epoch while maintenance is mid-flight. Requires the disk to have an
  // MvccManager attached (Database::EnableMvcc) and forces private buffer
  // pools per partition store so one writer's dirty pages never ride another
  // writer's commit. Off (the default) keeps every path — and its metering —
  // bit-identical to the single-writer library.
  bool transactional = false;

  // Read by nothing: edge operations block on their claims. perfbench sets it.
  uint32_t txn_max_retries = 8;
};

// Storage of one partition, shareable between access support relations over
// overlapping path expressions (§5.4). Holds the partition's two redundant
// B+ trees plus the slice reference counts; when several ASRs share the
// store, each contributes its own projections and the counts sum, so one
// ASR's maintenance never drops a slice another ASR still covers — provided
// every sharing ASR is maintained on every base update (the §5.4 contract).
struct PartitionStore {
  uint32_t width = 0;
  // Number of ASRs whose partitions attach this store. A shared store
  // (owners > 1) can transiently hold another path's not-yet-maintained
  // contribution, so maintenance answers existence questions from the
  // object store instead of the trees.
  uint32_t owners = 0;
  std::string name;  // diagnostic segment-name stem
  std::unique_ptr<btree::BTree> forward;   // clustered on the first column
  std::unique_ptr<btree::BTree> backward;  // clustered on the last column
  std::map<rel::Row, uint32_t> refcounts;
  // Set when physical triage (checksum, tree structure, cross-tree
  // agreement) failed after a crash: the trees are untrusted and must not
  // be read or written until RebuildTrees() re-derives them. Queries over a
  // quarantined partition degrade to object-base navigation; maintenance
  // keeps the refcounts (which live in memory and survive the page-write
  // crash) current so the rebuild has an exact source.
  bool quarantined = false;
  // Set when the store was created for a concurrent build: its trees pin
  // through this dedicated pool (over the store's own disk segments), so
  // partition builders never contend on a shared BufferManager.
  std::unique_ptr<storage::BufferManager> private_buffers;
  // The pool the trees actually use: private_buffers when present, else the
  // object store's shared pool. Needed to recreate trees on ResetTrees.
  storage::BufferManager* buffers = nullptr;

  // Transactional-mode writer claim, the ASR's one writer control. Edge
  // operations, snapshot capture and rebuilds all lock the claims of every
  // store they span, blocking, in address order (ClaimStores), so a writer
  // on a shared store waits until the previous one finished.
  std::mutex claim_mu;

  // Creates a store with two empty trees named `name`:fwd/:bwd, width
  // `width`, clustered on the first and last column. With `own_buffers`,
  // the trees get a private BufferManager of the same capacity as `shared`.
  static std::shared_ptr<PartitionStore> Create(
      storage::BufferManager* shared, const std::string& name, uint32_t width,
      bool own_buffers);

  // Bulk-loads both trees from `slices` (distinct partition tuples; each
  // tree sorts by its own clustered column). Trees must be empty.
  Status BulkLoad(std::vector<rel::Row> slices, double fill_factor);

  // Replaces both trees with fresh empty ones (new disk segments) and
  // clears the refcounts. Only valid for stores with a single owner — the
  // in-place rebuild path; the store's identity (shared_ptr) is preserved
  // so catalog registrations stay valid.
  void ResetTrees();

  // Rebuilds both trees (fresh disk segments) by bulk-loading the refcount
  // keys — the repair path for a quarantined store. Unlike ResetTrees the
  // refcounts are kept: for a shared store they are the only record that
  // includes every sibling ASR's contribution. Clears `quarantined`.
  Status RebuildTrees(double fill_factor);

  uint64_t TotalPages() const {
    return forward->leaf_page_count() + forward->inner_page_count() +
           backward->leaf_page_count() + backward->inner_page_count();
  }
};

// Callback consulted per partition during Build: return an existing store to
// share it (its width must match), or nullptr to create a fresh one.
// Arguments: partition index, first column, last column.
using PartitionProvider = std::function<std::shared_ptr<PartitionStore>(
    size_t, uint32_t, uint32_t)>;

// What Recover()/Repair() found and did (all page costs are additionally
// metered through the disk's per-segment counters).
struct RecoveryReport {
  // Fast path: no unresolved journal entries and every partition passed
  // physical triage — nothing was re-derived.
  bool clean = false;
  uint64_t journal_resolved = 0;    // pending/lost intents covered
  uint64_t rows_recomputed = 0;     // extension rows re-derived from the base
  uint32_t partitions_checked = 0;
  uint32_t partitions_quarantined = 0;  // failed triage; trees untrusted
  uint32_t partitions_reconciled = 0;   // healthy trees that needed a diff
  uint32_t partitions_repaired = 0;     // quarantined trees rebuilt (Repair)
  uint64_t slices_inserted = 0;     // per-tree reconcile insertions
  uint64_t slices_erased = 0;       // per-tree reconcile deletions

  std::string ToString() const;
};

class AccessSupportRelation {
 public:
  // Materializes the extension from the object store and loads every
  // partition into its two B+ trees.
  static Result<std::unique_ptr<AccessSupportRelation>> Build(
      gom::ObjectStore* store, PathExpression path, ExtensionKind kind,
      Decomposition decomposition, AsrOptions options = {},
      const PartitionProvider& provider = nullptr);

  const PathExpression& path() const { return path_; }
  ExtensionKind kind() const { return kind_; }
  const Decomposition& decomposition() const { return decomposition_; }
  const AsrOptions& options() const { return options_; }

  // Number of columns of the (undecomposed) relation.
  uint32_t width() const { return width_; }

  // Column of path position `pos` (equals pos when set columns are dropped).
  uint32_t ColumnOfPosition(uint32_t pos) const;

  // Eq. 35: which Q_{i,j} this extension can answer (i < j path positions).
  bool SupportsQuery(uint32_t i, uint32_t j) const {
    return ExtensionSupportsQuery(kind_, i, j, path_.n());
  }

  // Supported forward query Q_{i,j}(fw): keys at position j reachable from
  // `start` (a position-i object/value). NotSupported when Eq. 35 says so.
  Result<std::vector<AsrKey>> EvalForward(AsrKey start, uint32_t i,
                                          uint32_t j);

  // Supported backward query Q_{i,j}(bw): position-i keys with a path to
  // `target` (a position-j object/value).
  Result<std::vector<AsrKey>> EvalBackward(AsrKey target, uint32_t i,
                                           uint32_t j);

  // The partition hops Q_{i,j} runs in `dir` (requires i < j <= n).
  HopPlan PlanQuery(QueryDir dir, uint32_t i, uint32_t j) const {
    return HopPlan::Compile(decomposition_, dir, ColumnOfPosition(i),
                            ColumnOfPosition(j));
  }

  // --- Incremental maintenance (§6) --------------------------------------
  // To be called AFTER the object store change has been applied. The edge at
  // attribute A_{p+1} connects `u` (an object at path position p) to `w`
  // (the position p+1 object, or the atomic value when p+1 == n). Follows
  // the paper's simplifying assumption that an object occurs at only one
  // path position (§6). Requires drop_set_columns.
  Status OnEdgeInserted(Oid u, uint32_t p, AsrKey w);
  Status OnEdgeRemoved(Oid u, uint32_t p, AsrKey w);

  // Single-valued attribute assignment u.A_{p+1} := new_value (old value
  // `old_value`); either side may be NULL. Call after the store update.
  Status OnAttributeAssigned(Oid u, uint32_t p, AsrKey old_value,
                             AsrKey new_value);

  // Recomputes the extension from the object base and reloads every
  // partition in place. The fallback maintenance path for ASRs with
  // retained set columns (where incremental maintenance is unavailable) and
  // for bulk changes. Shared partition stores keep contributions of other
  // ASRs intact. Note: the rebuilt trees reuse their segments' pages only
  // logically; the simulated disk does not reclaim old pages.
  Status Rebuild();

  // --- Crash recovery -----------------------------------------------------
  // Post-crash repair protocol, to be called after a simulated crash (or
  // whenever corruption is suspected). Marks the disk's restart point
  // (revealing torn sectors, disarming the injector), drops every cached
  // buffer frame, and triages each partition store: per-page checksums,
  // B+ tree structure, forward/backward agreement. If the journal has no
  // unresolved intent and triage is clean, returns with report->clean (the
  // fast path). Otherwise the extension is re-derived from the object base
  // — which is updated before maintenance runs and therefore authoritative;
  // replay and rollback coincide — healthy partitions are reconciled by
  // slice diff, and partitions that failed triage are quarantined: queries
  // degrade to object-base navigation over their path slice until Repair().
  // After Recover() the ASR answers every supported query correctly.
  Status Recover(RecoveryReport* report = nullptr);

  // Rebuilds every quarantined partition store from its (memory-resident,
  // crash-surviving) refcounts into fresh segments and re-admits it; clears
  // degradation. The "background repair" half of the protocol.
  Status Repair(RecoveryReport* report = nullptr);

  // True while any partition store is quarantined (queries still answer
  // correctly, at navigation cost).
  bool degraded() const;
  size_t quarantined_count() const;

  // --- Consistent-epoch readers (transactional mode) ----------------------
  // Captures a read-only view of every partition tree at the current
  // committed epoch (snapshot.h). The returned snapshot answers EvalForward/
  // EvalBackward with the exact rows the live ASR held at capture time, even
  // while later maintenance operations or a Rebuild are mid-flight —
  // retained page versions, not locks, isolate the reader. Requires
  // AsrOptions::transactional and a non-degraded ASR; capture briefly takes
  // every partition claim so it never lands mid-operation.
  Result<std::unique_ptr<AsrSnapshot>> OpenSnapshot();

  const MaintenanceJournal& journal() const { return journal_; }
  // Mutable access for persistence wiring: Database attaches its WAL here
  // and replays journal records through ApplyWalRecord() at reopen.
  MaintenanceJournal* mutable_journal() { return &journal_; }

  // --- Introspection -------------------------------------------------------
  size_t partition_count() const { return partitions_.size(); }
  const btree::BTree& forward_tree(size_t idx) const {
    return *partitions_[idx].store->forward;
  }
  const btree::BTree& backward_tree(size_t idx) const {
    return *partitions_[idx].store->backward;
  }
  // The (possibly shared) storage of partition `idx`.
  const std::shared_ptr<PartitionStore>& partition_store(size_t idx) const {
    return partitions_[idx].store;
  }
  std::pair<uint32_t, uint32_t> partition_range(size_t idx) const {
    return decomposition_.partition(idx);
  }

  // Materializes partition `idx` as a relation (test oracle; scans pages).
  Result<rel::Relation> DumpPartition(size_t idx);

  // The materialized full-width extension (introspection for the invariant
  // checker, which compares it against partitions and the object base).
  const std::set<rel::Row>& rows() const { return full_rows_; }
  gom::ObjectStore* object_store() const { return store_; }

  // Structural self-validation: per-partition B+ tree integrity, forward/
  // backward tree agreement, refcount consistency, and — for solely owned
  // stores — agreement with the Def. 3.8 projection of the relation.
  // Returns the first violation as Corruption. This is the ASR_PARANOID
  // commit-point check; the paper-level invariants (Defs. 3.3–3.6
  // membership, Theorem 3.9 losslessness) live in src/check.
  Status ValidateStructure();

  // Commit-point hook: ValidateStructure() under -DASR_PARANOID=ON, no-op
  // (and compiled away) otherwise.
  Status ParanoidValidate() {
#if ASR_PARANOID_ENABLED
    return ValidateStructure();
#else
    return Status::OK();
#endif
  }

  // Total leaf+inner pages over all partition trees (storage footprint).
  uint64_t TotalPages() const;

  // Multi-line human-readable summary: path, extension, decomposition, and
  // per-partition tuple/page/height statistics.
  std::string Describe() const;

  // Pushes this ASR's query/maintenance counters, frontier-size histogram,
  // and per-partition structure (tuples, pages, plus both trees' counters)
  // into `registry` under `prefix`. Cold path; call at quiescent points.
  void ExportMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix) const;

 private:
  friend class AsrSnapshot;

  struct Partition {
    uint32_t first = 0;
    uint32_t last = 0;
    std::shared_ptr<PartitionStore> store;
  };

  AccessSupportRelation(gom::ObjectStore* store, PathExpression path,
                        ExtensionKind kind, Decomposition decomposition,
                        AsrOptions options);

  // The one §5.6 hop executor behind EvalForward/EvalBackward here and in
  // AsrSnapshot: validates Q_{i,j}, compiles its HopPlan and runs it from
  // `anchor`. `pinned` is the tree source. nullptr runs over the live
  // partition stores, records the query counters and routes stretches over
  // quarantined partitions to navigation. A snapshot's captured trees get
  // hop spans only: snapshot readers run concurrently, and the HotCounters
  // are single-writer.
  Result<std::vector<AsrKey>> RunPlan(QueryDir dir, AsrKey anchor, uint32_t i,
                                      uint32_t j, const AsrSnapshot* pinned);

  // Calls `fn` for each row of partition `p_idx` whose absolute column `col`
  // equals `value`; `fn` returns false to stop early. Uses a tree lookup when
  // `col` is the partition's first/last column and a page scan otherwise
  // (the Eq. 33/34 interior-column case).
  Status PartitionEachRowWithValue(
      size_t p_idx, uint32_t col, AsrKey value,
      const std::function<bool(const rel::Row&)>& fn);

  // Collecting variant of PartitionEachRowWithValue.
  Result<std::vector<rel::Row>> PartitionRowsWithValue(size_t p_idx,
                                                       uint32_t col,
                                                       AsrKey value);

  // Installs `rows` as this ASR's contribution: fills full_rows_ and the
  // per-partition slice refcounts, bulk-loading partitions whose store is
  // flagged fresh (concurrently when options_.build_threads > 1) and
  // inserting tuple-at-a-time into stores that already hold contributions.
  Status LoadRows(const std::vector<rel::Row>& rows,
                  const std::vector<bool>& fresh_store);

  // Inserts/erases a full-width row into/from all partitions (projected).
  void InsertRow(const rel::Row& row);
  void EraseRow(const rel::Row& row);

  // --- maintenance helpers (maintenance.cc) ---------------------------
  // Maximal partial paths over columns [0..p] ending in `u` (NULL-padded on
  // the left when the fragment does not reach position 0).
  Result<std::vector<rel::Row>> LeftFragments(Oid u, uint32_t p);
  // Maximal partial paths over columns [p+1..n] starting at `w`.
  Result<std::vector<rel::Row>> RightFragments(AsrKey w, uint32_t p1);

  Result<std::vector<rel::Row>> LeftFragmentsFromAsr(Oid u, uint32_t p);
  Result<std::vector<rel::Row>> RightFragmentsFromAsr(AsrKey w, uint32_t p1);
  Result<std::vector<rel::Row>> LeftFragmentsFromStore(Oid u, uint32_t p);
  Result<std::vector<rel::Row>> RightFragmentsFromStore(AsrKey w,
                                                        uint32_t p1);

  // Implementations of the maintenance entry points; the public wrappers
  // add the journal's begin/commit-or-mark-lost envelope around them.
  Status OnEdgeInsertedImpl(Oid u, uint32_t p, AsrKey w);
  Status OnEdgeRemovedImpl(Oid u, uint32_t p, AsrKey w);
  Status RebuildImpl();
  // The one edge-maintenance wrapper behind OnEdgeInserted/OnEdgeRemoved:
  // validates the edge, then hands off to RunEdgeTxn in transactional mode
  // or runs the Impl inside the journal envelope.
  Status RunEdgeOp(MaintOp op, Oid u, uint32_t p, AsrKey w);
  // The envelope's tail: commits journal entry `seq` when `st` is OK and
  // every tree write reached the disk, else marks it lost and returns the
  // error (IOError naming `what` when only the writes failed).
  Status CloseJournalEntry(uint64_t seq, Status st, const char* what);

  // --- transactional maintenance (txn.cc) ------------------------------
  // The transactional counterpart of the wrappers above: journal envelope,
  // claim every store, stage tree writes in a PageTransaction and commit;
  // on a failed flush or commit roll everything back (staged pages dropped,
  // tree metas restored, in-memory rows/refcounts undone).
  Status RunEdgeTxn(MaintOp op, Oid u, uint32_t p, AsrKey w);
  // Distinct partition stores, address-sorted (the canonical claim order).
  std::vector<PartitionStore*> DistinctStores() const;
  // Locks every distinct store's claim_mu, blocking, in DistinctStores()
  // order; the claims release with the returned locks.
  std::vector<std::unique_lock<std::mutex>> ClaimStores() const;
  // Registers every partition tree segment with the disk's MvccManager.
  // FailedPrecondition when none is attached. Idempotent; re-run after any
  // path that gives a store fresh segments (ResetTrees/RebuildTrees).
  Status RegisterTreeSegments();
  // The MvccManager behind this ASR's disk, or nullptr.
  storage::MvccManager* mvcc() const;

  // True when any buffer pool this ASR writes through has recorded a
  // write-back failure — the signal that an operation's tree updates did
  // not all reach the disk and its journal entry must be marked lost.
  bool AnyWriteError() const;

  // --- recovery helpers (recovery.cc) ---------------------------------
  // Physical triage of one partition store: segment checksums, both trees'
  // structure, forward/backward tuple agreement. OK = trees trustworthy.
  Status TriagePartitionStore(PartitionStore* store);

  // Degraded navigation for quarantined partitions. A quarantined hop
  // widens to a stretch: the plan's hops from the nearest path-position
  // column before it to the nearest one after it. Returns one past the
  // last hop of the degraded stretch starting at hop `h`, or `h` when that
  // hop runs on its tree. With set columns dropped every column is a
  // position, so a stretch is the quarantined hop itself.
  size_t StretchEnd(const HopPlan& plan, size_t h) const;
  // Answers a stretch through QueryEvaluator, the object-base navigator:
  // `frontier` sits at column `from_col`, and the keys reached at `to_col`
  // come back. Both columns are path positions. Position-0 keys outside an
  // anchor_collection drop out: the forward start, or the backward result.
  Result<std::unordered_set<AsrKey>> Navigate(
      QueryDir dir, const std::unordered_set<AsrKey>& frontier,
      uint32_t from_col, uint32_t to_col);
  // Path position occupying absolute column `col`, or -1 for a retained
  // set-instance column.
  int PositionOfColumn(uint32_t col) const;

  // Current out-edges of `u` along A_{p+1} (reads the object store).
  Result<std::vector<AsrKey>> OutEdges(Oid u, uint32_t p);
  // Is A_{q+1} of the position-q object `x` non-NULL? (An empty set counts
  // as defined — it occupies a tuple of E_q per Def. 3.3.)
  Result<bool> AttrDefined(AsrKey x, uint32_t q);
  // Does any object other than `exclude` currently reference `w` at
  // position p1 = p+1? Answered from the ASR when the extension carries the
  // information, else from the object store.
  Result<bool> HasOtherInEdge(AsrKey w, uint32_t p1, Oid exclude);

  gom::ObjectStore* store_;
  PathExpression path_;
  ExtensionKind kind_;
  Decomposition decomposition_;
  AsrOptions options_;
  uint32_t width_ = 0;
  std::vector<Partition> partitions_;
  // The materialized full-width extension as a set. Insert/erase of
  // full-width rows is exact set semantics; re-inserting an existing row or
  // erasing an absent one is a no-op that must not disturb the partitions.
  std::set<rel::Row> full_rows_;

  // Undo log for transactional attempts: while undo_active_, InsertRow/
  // EraseRow push closures reversing their full_rows_/refcount effects (tree
  // effects roll back physically — staged pages dropped, metas restored — so
  // the closures touch only the in-memory side). Replayed in reverse on
  // abort. Owned by the thread holding every claim; never concurrent.
  std::vector<std::function<void()>> undo_log_;
  bool undo_active_ = false;

  // Observability (compiled out under ASR_METRICS=OFF). Single-writer: the
  // thread evaluating queries / applying maintenance owns these.
  obs::HotCounter fwd_queries_;
  obs::HotCounter bwd_queries_;
  obs::HotCounter hop_lookups_;   // partition hops answered by cluster lookup
  obs::HotCounter hop_scans_;     // interior-column hops (full partition scan)
  obs::HotHistogram frontier_sizes_;  // frontier cardinality per hop
  obs::HotCounter maint_edge_inserts_;
  obs::HotCounter maint_edge_removes_;
  obs::HotCounter rebuilds_;
  obs::HotCounter rebuild_rows_;  // rows re-installed across all rebuilds
  obs::HotCounter degraded_hops_;  // hops answered by object-base navigation
  obs::HotCounter recoveries_;
  obs::HotCounter repairs_;

  MaintenanceJournal journal_;
};

}  // namespace asr

#endif  // ASR_ASR_ACCESS_SUPPORT_RELATION_H_
