// Per-operation performance ledger for access support relations.
//
// One binary, two seeded closed-loop workloads on the paper's Fig. 4
// profile (full extension, binary decomposition, file backend with mmap
// reads). It times the paper's operations — Q_{i,j} forward and backward
// (§5.6) and ins_p/del_p maintenance (§6) — from outside the library, reads
// the counters every layer already exposes, and checks the answers:
//
//   evict_mix    the Fig. 14 mix at P_up = 0.5 against a 128-frame pool:
//                every op misses into the disk and backend layers; updates
//                add gom, ASR maintenance and eviction write-back.
//   snapshot_rw  a transactional ASR (MVCC attached): one writer thread
//                applies the update stream while two reader threads loop
//                OpenSnapshot(), 32 queries, release.
//
// Durability is off everywhere: fdatasync latency on a shared host's disk
// swung twofold within minutes and would set every evict_mix timing. There
// is no read-only, all-hits workload: single-threaded queries against a
// cache-resident pool are bound by memory latency, which other tenants of a
// shared host moved past the benchmark's bounds from run to run (README.md).
//
// Usage: ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --dir <directory for segment files>
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. --trace 0 reports the end-to-end
// metrics; --trace 1 splits the window into an untraced half (layer counter
// deltas) and a traced half (one obs::TraceContext per op; per-span self
// time and page/buffer counts) and reports the per-layer metrics.
//
// ops_per_s is the timed window's completed ops over its length. A query or
// update percentile is the mean, over the window's one-second slices, of
// that percentile among the ops completing in the slice: every second
// counts alike, so a spell of host load counts for the time it lasted, not
// for the tail it adds to the whole window's histogram. The percentile over
// every op of the window is a per-layer figure. The window's throughput per
// 50 ms slice and the p99 of every latency slice are printed too, as
// diagnostics: a run that other tenants of a shared host disturbed shows as
// a step in them.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "asr/access_support_relation.h"
#include "asr/query.h"
#include "asr/snapshot.h"
#include "bench_util.h"
#include "check/invariant_checker.h"
#include "common/random.h"
#include "cost/cost_model.h"
#include "cost/opmix.h"
#include "harvest.h"
#include "latency_histogram.h"
#include "obs/latency.h"
#include "obs/span.h"
#include "op_stream.h"
#include "storage/mvcc.h"
#include "workload/synthetic_base.h"

namespace asr::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// --- Workload definitions --------------------------------------------------

constexpr int kSetupRepeats = 5;        // setup_s is their median
constexpr size_t kMixRing = 1 << 15;    // evict_mix ops, cycled
constexpr size_t kWriterRing = 1 << 14; // snapshot_rw writer updates
constexpr size_t kReaderRing = 1 << 16; // per snapshot_rw reader
constexpr int kReaders = 2;
constexpr int kSnapshotQueries = 32;    // queries per snapshot
constexpr int kConsistencyEvery = 4;    // snapshots between repeat checks
constexpr size_t kGateQueries = 256;    // sampled answers vs navigation
constexpr size_t kMeterOps = 2048;      // metering-pass op-stream prefix
constexpr uint64_t kMeterSeed = 1990;   // fixed: metered counts repeat
constexpr double kWarmupSeconds = 1.0;
constexpr double kSliceSeconds = 0.05;  // diagnostic throughput series
constexpr double kLatencySliceSeconds = 1.0;  // percentiles: mean of these
constexpr uint32_t kTxnRetries = 64;

// The Fig. 14 Qmix plus Q_{0,4}(fw), so the multi-hop forward frontier runs.
cost::OperationMix ReaderMix() {
  cost::OperationMix mix = bench::Fig14Mix();
  for (cost::WeightedQuery& q : mix.queries) q.weight *= 0.8;
  mix.queries.push_back({0.2, cost::QueryDirection::kForward, 0, 4});
  return mix;
}

struct Workload {
  const char* name;
  size_t frames;
  bool transactional;
  cost::OperationMix mix;
  double p_up;  // of the timed client (snapshot_rw: of the metering pass)
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = {
      {"evict_mix", 128, false, bench::Fig14Mix(), 0.5},
      {"snapshot_rw", 4096, true, ReaderMix(), 0.5},
  };
  return kAll;
}

cost::OperationMix QueriesOnly(const cost::OperationMix& mix) {
  return {mix.queries, {}};
}
cost::OperationMix UpdatesOnly(const cost::OperationMix& mix) {
  return {{}, mix.updates};
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "ledger: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

void MustOk(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "ledger: %s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Linear-interpolated q-quantile (0 when empty).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// --- Measurements ----------------------------------------------------------

size_t SliceCount(double seconds, double slice_seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds / slice_seconds)));
}

// A window's schedule from `start` to `deadline`, cut into `slices` equal
// throughput slices and `latency_slices` equal latency slices.
struct Timeline {
  Clock::time_point start;
  Clock::time_point deadline;
  size_t slices = 1;
  size_t latency_slices = 1;

  static Timeline Starting(double seconds) {
    Timeline t;
    t.start = Clock::now();
    t.deadline = t.start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
    t.slices = SliceCount(seconds, kSliceSeconds);
    t.latency_slices = SliceCount(seconds, kLatencySliceSeconds);
    return t;
  }
  double slice_seconds() const {
    return Seconds(deadline - start) / static_cast<double>(slices);
  }
  // Which of `n` equal slices an op completing at `t` belongs to (late ops
  // join the last).
  size_t SliceOf(Clock::time_point t, size_t n) const {
    const double k = Seconds(t - start) * static_cast<double>(n) /
                     Seconds(deadline - start);
    return std::min(n - 1, static_cast<size_t>(std::max(0.0, k)));
  }
};

// Latencies of a window, whole and per latency slice.
class SlicedLatency {
 public:
  explicit SlicedLatency(size_t slices) : slices_(slices) {}

  void Add(size_t slice, Clock::duration d) {
    whole_.Add(d);
    slices_[slice].Add(d);
  }
  void Merge(const SlicedLatency& o) {
    whole_.Merge(o.whole_);
    for (size_t k = 0; k < slices_.size(); ++k) slices_[k].Merge(o.slices_[k]);
  }

  const LatencyHistogram& whole() const { return whole_; }
  uint64_t count() const { return whole_.count(); }

  // Each non-empty slice's q-quantile, in slice order.
  std::vector<double> SlicePercentilesUs(double q) const {
    std::vector<double> per;
    for (const LatencyHistogram& h : slices_) {
      if (h.count() > 0) per.push_back(h.PercentileUs(q));
    }
    return per;
  }
  // The mean over non-empty slices of each slice's q-quantile.
  double MeanOfSlicesUs(double q) const {
    const std::vector<double> per = SlicePercentilesUs(q);
    double sum = 0;
    for (double us : per) sum += us;
    return Ratio(sum, static_cast<double>(per.size()));
  }

 private:
  LatencyHistogram whole_;
  std::vector<LatencyHistogram> slices_;
};

// Per-span totals over many traces: self time and self counts (a span's own
// figure minus what its children account for).
class SpanTally {
 public:
  struct Totals {
    double self_us = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  void Add(const obs::SpanNode& node) {
    double child_us = 0;
    uint64_t reads = 0, writes = 0, hits = 0, misses = 0;
    for (const auto& child : node.children) {
      child_us += child->wall_us;
      reads += child->page_reads;
      writes += child->page_writes;
      hits += child->buffer_hits;
      misses += child->buffer_misses;
      Add(*child);
    }
    Totals& t = spans_[node.name];
    t.self_us += std::max(0.0, node.wall_us - child_us);
    t.reads += Sub(node.page_reads, reads);
    t.writes += Sub(node.page_writes, writes);
    t.hits += Sub(node.buffer_hits, hits);
    t.misses += Sub(node.buffer_misses, misses);
  }

  void Merge(const SpanTally& other) {
    for (const auto& [name, o] : other.spans_) {
      Totals& t = spans_[name];
      t.self_us += o.self_us;
      t.reads += o.reads;
      t.writes += o.writes;
      t.hits += o.hits;
      t.misses += o.misses;
    }
  }

  Totals Get(const std::string& name) const {
    auto it = spans_.find(name);
    return it == spans_.end() ? Totals{} : it->second;
  }

 private:
  static uint64_t Sub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }
  std::map<std::string, Totals> spans_;
};

// Spans reported per op: the ledger's own around its gom and asr calls, and
// the library's existing ones that attach beneath them.
const std::vector<std::string>& ReportedSpans() {
  static const std::vector<std::string> kSpans = {
      "gom.update",       "asr.maint",       "asr.query",
      "asr.snapshot_open", "hop",            "ins_i",
      "rem_i",            "ins_i_txn",       "del_i_txn",
      "left_fragments",   "right_fragments", "install_paths",
      "retract_danglers", "retract_paths",   "reinstate_danglers"};
  return kSpans;
}

// What one window (or one thread of it) did.
struct WindowStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t queries = 0;
  uint64_t updates = 0;
  uint64_t snapshots = 0;
  size_t retained_peak = 0;
  uint64_t age_max = 0;
  uint64_t traced_ops = 0;
  SpanTally spans;
  SlicedLatency query;      // a whole query
  SlicedLatency update;     // a whole update: gom + maint
  LatencyHistogram gom;     // store calls of an update
  LatencyHistogram maint;   // OnEdgeInserted/OnEdgeRemoved of an update
  LatencyHistogram open;    // OpenSnapshot
  std::vector<uint64_t> slice_ops;  // completed ops per slice
  double slice_seconds = 0;
  double seconds = 0;

  explicit WindowStats(const Timeline& t)
      : query(t.latency_slices),
        update(t.latency_slices),
        slice_ops(t.slices),
        slice_seconds(t.slice_seconds()) {}

  uint64_t ops() const { return queries + updates; }
  double ops_per_s() const { return Ratio(ops(), seconds); }

  void Merge(const WindowStats& o) {
    attempted += o.attempted;
    failed += o.failed;
    queries += o.queries;
    updates += o.updates;
    snapshots += o.snapshots;
    retained_peak = std::max(retained_peak, o.retained_peak);
    age_max = std::max(age_max, o.age_max);
    traced_ops += o.traced_ops;
    spans.Merge(o.spans);
    query.Merge(o.query);
    update.Merge(o.update);
    gom.Merge(o.gom);
    maint.Merge(o.maint);
    open.Merge(o.open);
    for (size_t k = 0; k < slice_ops.size(); ++k) {
      slice_ops[k] += o.slice_ops[k];
    }
  }

  void Fail(const Status& st, const char* what) {
    ++failed;
    if (failed <= 3) {
      std::fprintf(stderr, "ledger: %s failed: %s\n", what,
                   st.ToString().c_str());
    }
  }
};

// --- The system under test -------------------------------------------------

struct System {
  // Declaration order is teardown order reversed: the disk borrows the
  // manager, the ASR borrows the store.
  std::unique_ptr<storage::MvccManager> mvcc;
  std::unique_ptr<workload::SyntheticBase> base;
  std::unique_ptr<AccessSupportRelation> asr;

  Subject subject() const { return {base.get(), asr.get(), mvcc.get()}; }
  // Tears down borrower before lender (a move-assignment would replace the
  // manager first, under a disk that still points at it).
  void Reset() {
    asr.reset();
    base.reset();
    mvcc.reset();
  }
};

struct SetupTimes {
  double generate_s = 0;
  double build_s = 0;
};

// Generate base + Build + flush: everything until the first op can run.
System BuildSystem(const Workload& w, const storage::DiskOptions& disk,
                   size_t frames, uint64_t seed, SetupTimes* times) {
  System sys;
  bench::WallTimer timer;
  workload::GenerateOptions gen;
  gen.seed = seed;
  gen.buffer_capacity = frames;
  gen.disk = disk;
  sys.base = Must(workload::SyntheticBase::Generate(bench::Fig4Profile(), gen),
                  "generate base");
  times->generate_s = timer.ElapsedMs() / 1000;
  timer.Reset();
  AsrOptions options;
  if (w.transactional) {
    sys.mvcc = std::make_unique<storage::MvccManager>();
    sys.base->disk()->AttachMvcc(sys.mvcc.get());
    options.transactional = true;
    options.txn_max_retries = kTxnRetries;
  }
  const PathExpression& path = sys.base->path();
  sys.asr = Must(AccessSupportRelation::Build(
                     sys.base->store(), path, ExtensionKind::kFull,
                     Decomposition::Binary(path.n()), options),
                 "build ASR");
  MustOk(sys.base->buffers()->FlushAll(), "flush after build");
  times->build_s = timer.ElapsedMs() / 1000;
  return sys;
}

obs::ProbeFn MakeProbe(storage::Disk* disk) {
  return [disk] {
    const storage::AccessStats s = disk->stats();
    const obs::LiveTelemetry& hub = obs::LiveTelemetry::Instance();
    return obs::CostProbe{s.reads(), s.writes(), hub.buffer_hits.value(),
                          hub.buffer_misses.value()};
  };
}

// --- Operations --------------------------------------------------------------

template <typename Source>  // AccessSupportRelation or AsrSnapshot
Result<std::vector<AsrKey>> RunQuery(Source* source, const Op& op) {
  obs::ScopedSpan span("asr.query");
  return op.dir == cost::QueryDirection::kForward
             ? source->EvalForward(op.anchor, op.i, op.j)
             : source->EvalBackward(op.anchor, op.i, op.j);
}

// ins_p/del_p: the store update, then ASR maintenance. The store calls and
// the maintenance call are timed apart.
Status ApplyUpdate(System* sys, const Op& op, Clock::duration* gom_time,
                   Clock::duration* maint_time) {
  gom::ObjectStore* store = sys->base->store();
  const bool insert = op.kind == Op::Kind::kInsert;
  const Clock::time_point t0 = Clock::now();
  Status st;
  {
    obs::ScopedSpan span("gom.update");
    Result<AsrKey> set = store->GetAttributeByName(
        op.u, sys->base->path().step(op.p + 1).attr_name);
    if (!set.ok()) return set.status();
    if (set->IsNull()) return Status::Corruption("update owner has no set");
    Result<bool> present = store->SetContains(set->ToOid(), op.w);
    if (!present.ok()) return present.status();
    if (*present == insert) {
      return Status::Corruption(insert ? "inserted edge already present"
                                       : "removed edge absent");
    }
    st = insert ? store->AddToSet(set->ToOid(), op.w)
                : store->RemoveFromSet(set->ToOid(), op.w);
  }
  const Clock::time_point t1 = Clock::now();
  if (st.ok()) {
    obs::ScopedSpan span("asr.maint");
    st = insert ? sys->asr->OnEdgeInserted(op.u, op.p, op.w)
                : sys->asr->OnEdgeRemoved(op.u, op.p, op.w);
  }
  *gom_time = t1 - t0;
  *maint_time = Clock::now() - t1;
  return st;
}

// A closed-loop client's op ring and its replay position.
struct Client {
  std::vector<Op> ring;
  size_t pos = 0;

  const Op& Next() {
    const Op& op = ring[pos];
    pos = (pos + 1) % ring.size();
    return op;
  }
};

// One client over the live system: replays its ring until the deadline,
// recording each op (and, when `trace`, its span tree).
void ClientLoop(System* sys, Client* client, OutstandingEdges* edges,
                const Timeline& timeline, bool trace, WindowStats* out) {
  const obs::ProbeFn probe = MakeProbe(sys->base->disk());
  for (Clock::time_point now = Clock::now(); now < timeline.deadline;) {
    const Op& op = client->Next();
    std::optional<obs::TraceContext> ctx;
    if (trace) ctx.emplace("op", probe);
    Status st;
    Clock::duration gom_time{}, maint_time{};
    const Clock::time_point t0 = Clock::now();
    if (op.is_query()) {
      st = RunQuery(sys->asr.get(), op).status();
    } else {
      st = ApplyUpdate(sys, op, &gom_time, &maint_time);
      if (st.ok()) edges->Applied(op);
    }
    now = Clock::now();
    if (ctx.has_value()) {
      out->spans.Add(ctx->Finish().root());
      ++out->traced_ops;
    }
    ++out->attempted;
    if (!st.ok()) {
      out->Fail(st, op.is_query() ? "query" : "update");
      continue;
    }
    ++out->slice_ops[timeline.SliceOf(now, timeline.slices)];
    const size_t slice = timeline.SliceOf(now, timeline.latency_slices);
    if (op.is_query()) {
      ++out->queries;
      out->query.Add(slice, now - t0);
    } else {
      ++out->updates;
      out->update.Add(slice, now - t0);
      out->gom.Add(gom_time);
      out->maint.Add(maint_time);
    }
  }
}

std::vector<AsrKey> Sorted(std::vector<AsrKey> keys) {
  std::sort(keys.begin(), keys.end(),
            [](AsrKey a, AsrKey b) { return a.raw() < b.raw(); });
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// One snapshot reader: OpenSnapshot(), kSnapshotQueries queries, release,
// until the deadline. Every kConsistencyEvery-th snapshot re-runs its first
// query after the others and must get the identical answer back.
void ReaderLoop(System* sys, Client* client, const Timeline& timeline,
                bool trace, WindowStats* out) {
  const obs::ProbeFn probe = MakeProbe(sys->base->disk());
  while (Clock::now() < timeline.deadline) {
    Result<std::unique_ptr<AsrSnapshot>> snap = Status::Aborted("not opened");
    {
      std::optional<obs::TraceContext> ctx;
      if (trace) ctx.emplace("open", probe);
      const Clock::time_point t0 = Clock::now();
      {
        obs::ScopedSpan span("asr.snapshot_open");
        snap = sys->asr->OpenSnapshot();
      }
      out->open.Add(Clock::now() - t0);
      if (ctx.has_value()) out->spans.Add(ctx->Finish().root());
    }
    ++out->attempted;
    if (!snap.ok()) {
      out->Fail(snap.status(), "OpenSnapshot");
      continue;
    }
    ++out->snapshots;
    AsrSnapshot* view = snap->get();
    const Op* first = nullptr;
    std::vector<AsrKey> first_answer;
    for (int k = 0; k < kSnapshotQueries; ++k) {
      const Op& op = client->Next();
      std::optional<obs::TraceContext> ctx;
      if (trace) ctx.emplace("op", probe);
      const Clock::time_point t0 = Clock::now();
      Result<std::vector<AsrKey>> answer = RunQuery(view, op);
      const Clock::time_point t1 = Clock::now();
      if (ctx.has_value()) {
        out->spans.Add(ctx->Finish().root());
        ++out->traced_ops;
      }
      ++out->attempted;
      if (!answer.ok()) {
        out->Fail(answer.status(), "snapshot query");
        continue;
      }
      ++out->queries;
      ++out->slice_ops[timeline.SliceOf(t1, timeline.slices)];
      out->query.Add(timeline.SliceOf(t1, timeline.latency_slices), t1 - t0);
      if (first == nullptr) {
        first = &op;
        first_answer = Sorted(std::move(answer).value());
      }
    }
    if (first != nullptr && out->snapshots % kConsistencyEvery == 0) {
      ++out->attempted;
      Result<std::vector<AsrKey>> again = RunQuery(view, *first);
      if (!again.ok() || Sorted(std::move(again).value()) != first_answer) {
        out->Fail(Status::Corruption("snapshot answer changed"),
                  "snapshot repeat");
      }
    }
    out->retained_peak =
        std::max(out->retained_peak, sys->mvcc->retained_pages());
    out->age_max = std::max<uint64_t>(
        out->age_max, sys->mvcc->committed_epoch() - view->epoch());
  }
}

// Runs `client` (and, concurrently, every snapshot reader) for `seconds`.
WindowStats RunWindow(System* sys, Client* client, OutstandingEdges* edges,
                      std::vector<Client>* readers, double seconds,
                      bool trace) {
  const Timeline timeline = Timeline::Starting(seconds);
  std::vector<WindowStats> per(1 + readers->size(), WindowStats(timeline));
  if (readers->empty()) {
    ClientLoop(sys, client, edges, timeline, trace, &per[0]);
  } else {
    std::vector<std::thread> threads;
    threads.emplace_back(
        [&] { ClientLoop(sys, client, edges, timeline, trace, &per[0]); });
    for (size_t r = 0; r < readers->size(); ++r) {
      threads.emplace_back([&, r] {
        ReaderLoop(sys, &(*readers)[r], timeline, trace, &per[1 + r]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  WindowStats total(timeline);
  for (const WindowStats& w : per) total.Merge(w);
  total.seconds = Seconds(Clock::now() - timeline.start);
  return total;
}

// --- Correctness gate --------------------------------------------------------

struct Gate {
  uint64_t checks = 0;
  uint64_t failures = 0;
  void Check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++failures;
      if (failures <= 3) std::fprintf(stderr, "ledger: gate: %s\n", what.c_str());
    }
  }
};

// A seeded sample of live-ASR answers against object-base navigation.
void CheckAnswers(System* sys, const std::vector<Op>& ops, uint64_t seed,
                  Gate* gate) {
  std::vector<const Op*> queries;
  for (const Op& op : ops) {
    if (op.is_query()) queries.push_back(&op);
  }
  if (queries.empty()) return;
  QueryEvaluator nav(sys->base->store(), &sys->base->path());
  Rng rng(seed);
  for (size_t k = 0; k < kGateQueries; ++k) {
    const Op& op = *queries[rng.Uniform(queries.size())];
    Result<std::vector<AsrKey>> got = RunQuery(sys->asr.get(), op);
    Result<std::vector<AsrKey>> want =
        op.dir == cost::QueryDirection::kForward
            ? nav.ForwardNoSupport(op.anchor, op.i, op.j)
            : nav.BackwardNoSupport(op.anchor, op.i, op.j);
    gate->Check(got.ok() && want.ok() &&
                    Sorted(std::move(got).value()) ==
                        Sorted(std::move(want).value()),
                "ASR answer differs from navigation for Q_{" +
                    std::to_string(op.i) + "," + std::to_string(op.j) + "}");
  }
}

// Defs. 3.3-3.6 membership (semantic recompute), Thm. 3.9 losslessness and
// forward/backward tree agreement.
void CheckInvariants(System* sys, Gate* gate) {
  check::InvariantChecker checker;
  check::CheckReport report;
  checker.CheckAsr(sys->asr.get(), &report);
  gate->Check(report.clean(), "invariant checker: " + report.ToString());
}

// --- Metering pass -----------------------------------------------------------

struct Metered {
  uint64_t ops = 0;
  uint64_t pages = 0;
  uint64_t tree_pages = 0;
  double model = 0;  // CostModel pages per op for the same mix
};

// The workload's op stream on the memory backend with capacity 0 (every
// page touch is a counted access, §5.6), from a fixed seed so the counts
// repeat bit-exactly across runs and seeds.
Metered MeterPass(const Workload& w) {
  SetupTimes unused;
  System sys = BuildSystem(w, storage::DiskOptions::Memory(), 0, kMeterSeed,
                           &unused);
  storage::Disk* disk = sys.base->disk();
  Metered m;
  Clock::duration ignored{};
  if (!w.transactional) {
    std::vector<Op> ops = Must(
        GenerateRing(sys.base.get(), w.mix, w.p_up, kMeterOps, kMeterSeed),
        "meter stream");
    ops.resize(kMeterOps);
    disk->ResetStats();
    for (const Op& op : ops) {
      Status st = op.is_query() ? RunQuery(sys.asr.get(), op).status()
                                : ApplyUpdate(&sys, op, &ignored, &ignored);
      MustOk(st, "metered op");
    }
    m.ops = ops.size();
  } else {
    // Rounds of kSnapshotQueries writer updates, then one snapshot read by
    // kSnapshotQueries queries: P_up = 0.5, as in the model column.
    const size_t half = kMeterOps / 2;
    std::vector<Op> updates = Must(GenerateRing(sys.base.get(),
                                                UpdatesOnly(w.mix), 1.0, half,
                                                kMeterSeed),
                                   "meter updates");
    std::vector<Op> queries = Must(GenerateRing(sys.base.get(),
                                                QueriesOnly(w.mix), 0.0, half,
                                                kMeterSeed + 1),
                                   "meter queries");
    disk->ResetStats();
    for (size_t r = 0; r < half; r += kSnapshotQueries) {
      for (size_t k = r; k < r + kSnapshotQueries; ++k) {
        MustOk(ApplyUpdate(&sys, updates[k], &ignored, &ignored),
               "metered update");
      }
      std::unique_ptr<AsrSnapshot> snap =
          Must(sys.asr->OpenSnapshot(), "metered snapshot");
      for (size_t k = r; k < r + kSnapshotQueries; ++k) {
        MustOk(RunQuery(snap.get(), queries[k]).status(), "metered query");
      }
    }
    m.ops = 2 * half;
  }
  m.pages = disk->stats().total();
  for (uint32_t s = 0; s < disk->segment_count(); ++s) {
    if (disk->SegmentName(s).rfind("btree:", 0) == 0) {
      m.tree_pages += disk->segment_stats(s).total();
    }
  }
  cost::CostModel model(bench::Fig4Profile());
  m.model = cost::MixCost(model, ExtensionKind::kFull,
                          Decomposition::Binary(model.n()), w.mix, w.p_up);
  return m;
}

// --- Output --------------------------------------------------------------------

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "ledger: metric %s is not finite\n", name.c_str());
      value = 0;
      bad_ = true;
    }
    metrics_.emplace_back(name, value, unit);
  }
  bool bad() const { return bad_; }

  void PrintTable() const {
    for (const auto& [name, value, unit] : metrics_) {
      std::printf("  %-36s %16.4f %s\n", name.c_str(), value, unit.c_str());
    }
  }

  // The result line: the last line of standard output.
  void PrintJson(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t k = 0; k < metrics_.size(); ++k) {
      const auto& [name, value, unit] = metrics_[k];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  k == 0 ? "" : ", ", name.c_str(), value, unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<std::tuple<std::string, double, std::string>> metrics_;
  bool bad_ = false;
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_trace = false;
  for (int k = 1; k + 1 < argc; k += 2) {
    const std::string flag = argv[k];
    const char* value = argv[k + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') args->seconds = 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         have_trace && args->seconds > 0 && args->seconds <= 120 &&
         !args->dir.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ledger --workload <evict_mix|snapshot_rw> "
                 "--seed <n> --seconds <s in (0, 120]> --trace <0|1> "
                 "--dir <path>\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : Workloads()) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "ledger: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const bool snapshot_rw = w->transactional;
  std::printf("ledger workload=%s seed=%llu seconds=%.3f trace=%d\n", w->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  bench::WallTimer phase;

  // Set-up, repeated; the last system is the one measured.
  const storage::DiskOptions disk = storage::DiskOptions::File(args.dir, true);
  std::vector<double> setup_s, generate_s, build_s;
  System sys;
  for (int r = 0; r < kSetupRepeats; ++r) {
    sys.Reset();
    SetupTimes t;
    sys = BuildSystem(*w, disk, w->frames, args.seed, &t);
    setup_s.push_back(t.generate_s + t.build_s);
    generate_s.push_back(t.generate_s);
    build_s.push_back(t.build_s);
  }
  const double setup_phase_s = phase.ElapsedMs() / 1000;
  phase.Reset();

  // The op streams, drawn from the seed (reads the base, writes nothing).
  const uint64_t stream_seed = args.seed * 0x9E3779B97F4A7C15ull + 1;
  workload::SyntheticBase* base = sys.base.get();
  Client client;
  std::vector<Client> readers;
  if (!snapshot_rw) {
    client.ring = Must(GenerateRing(base, w->mix, w->p_up, kMixRing,
                                    stream_seed),
                       "op stream");
  } else {
    client.ring = Must(GenerateRing(base, UpdatesOnly(w->mix), 1.0,
                                    kWriterRing, stream_seed),
                       "writer stream");
    for (int r = 0; r < kReaders; ++r) {
      readers.push_back({Must(GenerateRing(base, QueriesOnly(w->mix), 0.0,
                                           kReaderRing,
                                           stream_seed + 2 +
                                               static_cast<uint64_t>(r)),
                              "reader stream"),
                         0});
    }
  }
  OutstandingEdges edges;

  RunWindow(&sys, &client, &edges, &readers, kWarmupSeconds, false);
  const double prepare_phase_s = phase.ElapsedMs() / 1000;
  phase.Reset();

  // Timed window(s). Layer counters are read around the untraced one.
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const LayerCounters before = LayerCounters::Read(sys.subject());
  const WindowStats window =
      RunWindow(&sys, &client, &edges, &readers, untraced_s, false);
  const LayerCounters layers =
      LayerCounters::Read(sys.subject()).Since(before);
  std::optional<WindowStats> traced;
  if (args.trace) {
    traced = RunWindow(&sys, &client, &edges, &readers, args.seconds / 2, true);
  }
  const double peak_rss_mb = PeakRssMb();
  const double window_phase_s = phase.ElapsedMs() / 1000;
  phase.Reset();

  // Correctness gate: return the base to its start state, then compare a
  // sample of answers with navigation and run the invariant checker.
  Gate gate;
  for (const Op& op : edges.Drain()) {
    Clock::duration gom_time{}, maint_time{};
    Status st = ApplyUpdate(&sys, op, &gom_time, &maint_time);
    gate.Check(st.ok(), "drain update: " + st.ToString());
  }
  CheckAnswers(&sys, snapshot_rw ? readers[0].ring : client.ring,
               stream_seed + 100, &gate);
  CheckInvariants(&sys, &gate);
  const double asr_pages = static_cast<double>(sys.asr->TotalPages());
  sys.Reset();
  const double gate_phase_s = phase.ElapsedMs() / 1000;
  phase.Reset();

  const Metered metered = MeterPass(*w);
  const double metered_per_op = Ratio(metered.pages, metered.ops);
  const double meter_phase_s = phase.ElapsedMs() / 1000;

  uint64_t attempted = window.attempted + gate.checks;
  uint64_t failed = window.failed + gate.failures;
  if (traced.has_value()) {
    attempted += traced->attempted;
    failed += traced->failed;
  }
  std::printf("phases: setup %.1f s, streams+warm-up %.1f s, windows %.1f s, "
              "gate %.1f s, metering %.1f s\n",
              setup_phase_s, prepare_phase_s, window_phase_s, gate_phase_s,
              meter_phase_s);
  std::printf("window: %llu ops (%llu queries, %llu updates, %llu snapshots) "
              "in %.3f s, %zu slices; failed_frac %.6f\n",
              static_cast<unsigned long long>(window.ops()),
              static_cast<unsigned long long>(window.queries),
              static_cast<unsigned long long>(window.updates),
              static_cast<unsigned long long>(window.snapshots),
              window.seconds, window.slice_ops.size(),
              Ratio(failed, attempted));
  std::printf("gate: %llu checks, %llu failures\n",
              static_cast<unsigned long long>(gate.checks),
              static_cast<unsigned long long>(gate.failures));
  // Diagnostic only: a run disturbed by other tenants shows as a step here.
  std::printf("slice ops/s:");
  for (uint64_t ops : window.slice_ops) {
    std::printf(" %.0f", ops / window.slice_seconds);
  }
  std::printf("\nquery p99 us: whole window %.1f; per latency slice:",
              window.query.whole().PercentileUs(0.99));
  for (double us : window.query.SlicePercentilesUs(0.99)) {
    std::printf(" %.1f", us);
  }
  std::printf("\nupdate p99 us: whole window %.1f; per latency slice:",
              window.update.whole().PercentileUs(0.99));
  for (double us : window.update.SlicePercentilesUs(0.99)) {
    std::printf(" %.1f", us);
  }
  std::printf("\n");

  Report report;
  if (!args.trace) {
    report.Add("setup_s", Quantile(setup_s, 0.5), "s");
    report.Add("ops_per_s", window.ops_per_s(), "1/s");
    report.Add("query_p50_us", window.query.MeanOfSlicesUs(0.50), "us");
    report.Add("query_p99_us", window.query.MeanOfSlicesUs(0.99), "us");
    report.Add("update_p50_us", window.update.MeanOfSlicesUs(0.50), "us");
    report.Add("update_p99_us", window.update.MeanOfSlicesUs(0.99), "us");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    report.Add("asr_pages", asr_pages, "pages");
    report.Add("metered_pages_per_op", metered_per_op, "pages/op");
  } else {
    const double ops = static_cast<double>(window.ops());
    const LayerCounters& d = layers;
    report.Add("asr.hops_per_query", Ratio(d.hops, d.queries), "hops");
    report.Add("asr.frontier_mean", d.frontier.Mean(), "keys");
    report.Add("asr.maint_us_p50", window.maint.PercentileUs(0.50), "us");
    report.Add("asr.maint_us_p99", window.maint.PercentileUs(0.99), "us");
    report.Add("asr.txn_retries_per_update",
               Ratio(d.txn_retries.sum, window.updates), "count");
    report.Add("asr.snapshot_open_us_p50", window.open.PercentileUs(0.50),
               "us");
    report.Add("asr.snapshot_open_us_p99", window.open.PercentileUs(0.99),
               "us");
    report.Add("gom.update_us_p50", window.gom.PercentileUs(0.50), "us");
    report.Add("gom.update_us_p99", window.gom.PercentileUs(0.99), "us");
    report.Add("gom.base_reads_per_op", Ratio(d.reads - d.tree_reads, ops),
               "pages");
    report.Add("btree.descents_per_op", Ratio(d.descents, ops), "count");
    report.Add("btree.leaf_touches_per_op", Ratio(d.leaf_touches, ops),
               "pages");
    report.Add("btree.inner_touches_per_op", Ratio(d.inner_touches, ops),
               "pages");
    report.Add("btree.splits", static_cast<double>(d.splits), "count");
    report.Add("buffer.hit_ratio", Ratio(d.hits, d.hits + d.misses), "ratio");
    report.Add("buffer.misses_per_op", Ratio(d.misses, ops), "count");
    report.Add("buffer.evictions_per_op", Ratio(d.evictions, ops), "count");
    report.Add("buffer.writebacks_per_op", Ratio(d.writebacks, ops), "count");
    report.Add("buffer.snapshot_misses_per_query",
               Ratio(d.all_misses - d.misses,
                     snapshot_rw ? window.queries : 0),
               "count");
    report.Add("disk.reads_per_op", Ratio(d.reads, ops), "pages");
    report.Add("disk.writes_per_op", Ratio(d.writes, ops), "pages");
    report.Add("disk.tree_reads_per_op", Ratio(d.tree_reads, ops), "pages");
    report.Add("backend.read_us_p50", static_cast<double>(d.read_us.P50()),
               "us");
    report.Add("backend.read_us_p99", static_cast<double>(d.read_us.P99()),
               "us");
    report.Add("backend.write_us_p50", static_cast<double>(d.write_us.P50()),
               "us");
    report.Add("backend.write_us_p99", static_cast<double>(d.write_us.P99()),
               "us");
    report.Add("mvcc.commits_per_update", Ratio(d.commits, window.updates),
               "count");
    report.Add("mvcc.conflicts", static_cast<double>(d.conflicts), "count");
    report.Add("mvcc.retained_pages_peak",
               static_cast<double>(window.retained_peak), "pages");
    report.Add("mvcc.snapshot_age_max", static_cast<double>(window.age_max),
               "epochs");
    report.Add("journal.committed", static_cast<double>(d.journal_committed),
               "count");
    report.Add("journal.aborted", static_cast<double>(d.journal_aborted),
               "count");
    report.Add("setup.generate_s", Quantile(generate_s, 0.5), "s");
    report.Add("setup.build_s", Quantile(build_s, 0.5), "s");
    report.Add("meter.tree_pages_per_op",
               Ratio(metered.tree_pages, metered.ops), "pages/op");
    report.Add("meter.base_pages_per_op",
               Ratio(metered.pages - metered.tree_pages, metered.ops),
               "pages/op");
    report.Add("cost.model_pages_per_op", metered.model, "pages/op");
    report.Add("cost.model_ratio", Ratio(metered.model, metered_per_op),
               "ratio");
    report.Add("trace.untraced_ops_per_s", window.ops_per_s(), "1/s");
    report.Add("trace.traced_ops_per_s", traced->ops_per_s(), "1/s");
    report.Add("trace.overhead_ratio",
               Ratio(window.ops_per_s(), traced->ops_per_s()), "ratio");
    report.Add("window.query_p50_us", window.query.whole().PercentileUs(0.50),
               "us");
    report.Add("window.query_p99_us", window.query.whole().PercentileUs(0.99),
               "us");
    report.Add("window.update_p50_us",
               window.update.whole().PercentileUs(0.50), "us");
    report.Add("window.update_p99_us",
               window.update.whole().PercentileUs(0.99), "us");
    report.Add("samples.query", static_cast<double>(window.query.count()),
               "count");
    report.Add("samples.update", static_cast<double>(window.update.count()),
               "count");
    report.Add("failed_frac", Ratio(failed, attempted), "ratio");
    const double per = static_cast<double>(traced->traced_ops);
    for (const std::string& name : ReportedSpans()) {
      const SpanTally::Totals t = traced->spans.Get(name);
      const std::string p = "span." + name;
      report.Add(p + ".self_us", Ratio(t.self_us, per), "us");
      report.Add(p + ".reads", Ratio(t.reads, per), "pages");
      report.Add(p + ".writes", Ratio(t.writes, per), "pages");
      report.Add(p + ".hits", Ratio(t.hits, per), "count");
      report.Add(p + ".misses", Ratio(t.misses, per), "count");
    }
  }
  report.PrintTable();
  const bool correct = failed == 0 && !report.bad() && window.ops() > 0;
  report.PrintJson(correct, std::max<uint64_t>(attempted, 1), failed);
  return 0;
}

}  // namespace
}  // namespace asr::perfbench

int main(int argc, char** argv) { return asr::perfbench::Main(argc, argv); }
