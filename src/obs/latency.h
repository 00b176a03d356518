// Wall-clock latency instrumentation and the live telemetry hub.
//
// The registry's HotCounter/HotHistogram are deliberately single-writer
// plain fields, readable only at quiescent points — which is exactly wrong
// for a background sampler that wants to watch a workload *while it runs*.
// This header adds the second discipline: SharedCounter / SharedHistogram
// are relaxed-atomic twins of the hot types, safe for one writer plus any
// number of concurrent readers (per-field relaxed loads; a sampled snapshot
// is a near-point-in-time view, not a serialized one — fine for rates and
// percentiles, never used for metered page-count claims).
//
// LiveTelemetry is the process-global hub holding exactly the signals the
// sampler streams: buffer hits/misses, degraded navigation hops, and the
// storage-seam latency histograms (backend read/write/sync, WAL
// append/sync). Hot components mirror into it; the sampler only ever reads
// the hub, so the single-writer HotCounters stay untouched by other
// threads and TSan stays quiet.
//
// Compile-out contract: under ASR_METRICS_ENABLED=0 every type here is an
// empty no-op and LatencyTimer never reads the clock, so -DASR_METRICS=OFF
// leaves zero telemetry work in the hot paths.
#ifndef ASR_OBS_LATENCY_H_
#define ASR_OBS_LATENCY_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "obs/metrics.h"

namespace asr::obs {

#if ASR_METRICS_ENABLED

// Monotonic wall clock in microseconds (the latency currency everywhere).
inline uint64_t MonotonicMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One writer, many readers; relaxed is enough because samples are
// statistical, not transactional.
class SharedCounter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A level, not an accumulator: Set overwrites (snapshot age, queue depth).
// Same discipline as SharedCounter — one writer, many relaxed readers.
class SharedGauge {
 public:
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Relaxed-atomic histogram with the registry's bucket geometry. Observe is
// one writer; snapshot() may run concurrently from the sampler thread and
// sees each field near-current (fields may be mutually skewed by an
// in-flight Observe — rates and percentiles tolerate that).
class SharedHistogram {
 public:
  void Observe(uint64_t v) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
    buckets_[HotHistogram::BucketIndex(v)].fetch_add(
        1, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const {
    HistogramSnapshot s;
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    return s;
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  void Reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
};

// Scoped stopwatch: observes elapsed microseconds into up to two
// histograms (the component's own, for per-phase bench numbers, and the
// hub's, for the live stream). `enabled=false` skips the clock entirely so
// metering-backend paths pay nothing.
class LatencyTimer {
 public:
  explicit LatencyTimer(bool enabled, SharedHistogram* primary,
                        SharedHistogram* mirror = nullptr)
      : primary_(enabled ? primary : nullptr),
        mirror_(enabled ? mirror : nullptr),
        start_(enabled ? MonotonicMicros() : 0) {}

  ~LatencyTimer() {
    if (primary_ == nullptr && mirror_ == nullptr) return;
    uint64_t us = MonotonicMicros() - start_;
    if (primary_ != nullptr) primary_->Observe(us);
    if (mirror_ != nullptr) mirror_->Observe(us);
  }

  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

 private:
  SharedHistogram* primary_;
  SharedHistogram* mirror_;
  uint64_t start_;
};

#else  // !ASR_METRICS_ENABLED

inline uint64_t MonotonicMicros() { return 0; }

class SharedCounter {
 public:
  void Inc(uint64_t = 1) {}
  uint64_t value() const { return 0; }
  void Reset() {}
};

class SharedGauge {
 public:
  void Set(uint64_t) {}
  uint64_t value() const { return 0; }
  void Reset() {}
};

class SharedHistogram {
 public:
  void Observe(uint64_t) {}
  HistogramSnapshot snapshot() const { return {}; }
  uint64_t count() const { return 0; }
  void Reset() {}
};

class LatencyTimer {
 public:
  explicit LatencyTimer(bool, SharedHistogram*, SharedHistogram* = nullptr) {}
};

#endif  // ASR_METRICS_ENABLED

// Process-global mirror of the live-stream signals. Everything in here is
// shared-safe; the sampler's default collector reads only this hub.
struct LiveTelemetry {
  // Buffer pool (mirrored from BufferManager::TryPin).
  SharedCounter buffer_hits;
  SharedCounter buffer_misses;
  // Degraded navigation entries (mirrored from AccessSupportRelation).
  SharedCounter degraded_hops;
  // Storage-seam latencies, microseconds.
  SharedHistogram storage_read_us;
  SharedHistogram storage_write_us;
  SharedHistogram storage_sync_us;
  SharedHistogram wal_append_us;
  SharedHistogram wal_sync_us;
  // Transaction layer (mirrored from MvccManager): commit/conflict counts
  // and the distance in epochs between the oldest live snapshot and the
  // committed epoch.
  SharedCounter txn_commits;
  SharedCounter txn_conflicts;
  SharedHistogram txn_retries;  // written by nothing; perfbench reads it
  SharedGauge snapshot_age_epochs;

  void Reset() {
    buffer_hits.Reset();
    buffer_misses.Reset();
    degraded_hops.Reset();
    storage_read_us.Reset();
    storage_write_us.Reset();
    storage_sync_us.Reset();
    wal_append_us.Reset();
    wal_sync_us.Reset();
    txn_commits.Reset();
    txn_conflicts.Reset();
    snapshot_age_epochs.Reset();
  }

  static LiveTelemetry& Instance() {
    static LiveTelemetry hub;
    return hub;
  }
};

}  // namespace asr::obs

#endif  // ASR_OBS_LATENCY_H_
