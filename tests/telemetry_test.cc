// Live telemetry pipeline: percentile math, shared (sampler-safe) metric
// types, the operational event journal, the background sampler with its
// alert rules, and the Prometheus exposition.
#include <bit>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/events.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/sampler.h"

namespace asr {
namespace {

// --- HistogramSnapshot percentiles and windows ---------------------------

// Registry bucket geometry, restated locally so the snapshot-math tests
// also run under -DASR_METRICS=OFF (where HotHistogram is a no-op type).
size_t BucketOf(uint64_t v) {
  if (v <= 1) return 0;
  size_t b = static_cast<size_t>(std::bit_width(v - 1));
  return b < obs::kHistogramBuckets ? b : obs::kHistogramBuckets - 1;
}

obs::HistogramSnapshot MakeSnapshot(std::vector<uint64_t> values) {
  obs::HistogramSnapshot s;
  for (uint64_t v : values) {
    ++s.count;
    s.sum += v;
    if (v > s.max) s.max = v;
    ++s.buckets[BucketOf(v)];
  }
  return s;
}

TEST(HistogramPercentileTest, EmptySnapshotIsZero) {
  obs::HistogramSnapshot s;
  EXPECT_EQ(s.Percentile(0.5), 0u);
  EXPECT_EQ(s.P99(), 0u);
}

TEST(HistogramPercentileTest, PercentileReturnsCoveringBucketBound) {
  // 100 observations of 3us (bucket (2,4]) and one of 1000us: p50 must
  // report the 4us bucket bound, p99 still the 4us bound (rank 100 of 101),
  // p100 the exact max.
  std::vector<uint64_t> values(100, 3);
  values.push_back(1000);
  obs::HistogramSnapshot s = MakeSnapshot(values);
  EXPECT_EQ(s.P50(), 4u);
  EXPECT_EQ(s.Percentile(0.99), 4u);
  EXPECT_EQ(s.Percentile(1.0), 1000u);
}

TEST(HistogramPercentileTest, CappedAtObservedMax) {
  // A single observation of 5 lands in bucket (4,8]; the percentile must
  // not report the bucket bound 8 when the true max is 5.
  obs::HistogramSnapshot s = MakeSnapshot({5});
  EXPECT_EQ(s.P50(), 5u);
  EXPECT_EQ(s.P99(), 5u);
}

TEST(HistogramPercentileTest, SpreadAcrossBuckets) {
  // 90 fast (1us), 10 slow (100us, bucket (64,128]): p50 in the fast
  // bucket, p95 and p99 in the slow one.
  std::vector<uint64_t> values(90, 1);
  for (int i = 0; i < 10; ++i) values.push_back(100);
  obs::HistogramSnapshot s = MakeSnapshot(values);
  EXPECT_EQ(s.P50(), 1u);
  EXPECT_EQ(s.P95(), 100u);
  EXPECT_EQ(s.P99(), 100u);
}

TEST(HistogramPercentileTest, DeltaSinceSubtractsWindow) {
  obs::HistogramSnapshot earlier = MakeSnapshot({1, 1, 1});
  obs::HistogramSnapshot later = MakeSnapshot({1, 1, 1, 100, 100});
  obs::HistogramSnapshot delta = later.DeltaSince(earlier);
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.sum, 200u);
  EXPECT_EQ(delta.max, 100u);  // max carries the later cumulative value
  EXPECT_EQ(delta.P50(), 100u);
}

#if ASR_METRICS_ENABLED

// --- Shared (sampler-safe) metric types ----------------------------------

TEST(SharedMetricsTest, CounterIncAndReset) {
  obs::SharedCounter c;
  c.Inc();
  c.Inc(4);
  EXPECT_EQ(c.value(), 5u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(SharedMetricsTest, HistogramMatchesHotGeometry) {
  obs::SharedHistogram shared;
  obs::HotHistogram hot;
  for (uint64_t v : {1ull, 4ull, 100ull, 5000ull}) {
    shared.Observe(v);
    hot.Observe(v);
  }
  obs::HistogramSnapshot a = shared.snapshot();
  obs::HistogramSnapshot b = hot.snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.max, b.max);
  for (size_t i = 0; i < obs::kHistogramBuckets; ++i) {
    EXPECT_EQ(a.buckets[i], b.buckets[i]) << "bucket " << i;
  }
}

TEST(SharedMetricsTest, LatencyTimerObservesPrimaryAndMirror) {
  obs::SharedHistogram primary;
  obs::SharedHistogram mirror;
  { obs::LatencyTimer t(/*enabled=*/true, &primary, &mirror); }
  EXPECT_EQ(primary.count(), 1u);
  EXPECT_EQ(mirror.count(), 1u);
  { obs::LatencyTimer t(/*enabled=*/false, &primary, &mirror); }
  EXPECT_EQ(primary.count(), 1u) << "disabled timer must not observe";
  EXPECT_EQ(mirror.count(), 1u);
}

// --- Operational event journal -------------------------------------------

TEST(EventLogTest, RecordsInOrderWithAdvancingSeq) {
  obs::EventLog log(8);
  log.Record(obs::EventKind::kRecoveryStart, "partitions=2");
  log.Record(obs::EventKind::kPartitionQuarantine, "partition=0");
  log.Record(obs::EventKind::kRecoveryFinish);
  std::vector<obs::Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kRecoveryStart);
  EXPECT_EQ(events[0].detail, "partitions=2");
  EXPECT_EQ(events[2].seq, 3u);
  EXPECT_EQ(log.total_recorded(), 3u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogTest, OverflowDropsOldestButKeepsCounting) {
  obs::EventLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.Record(obs::EventKind::kAlert, "n=" + std::to_string(i));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_recorded(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  std::vector<obs::Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The retained window is the tail, oldest first, seq never reused.
  EXPECT_EQ(events.front().seq, 7u);
  EXPECT_EQ(events.back().seq, 10u);
  EXPECT_EQ(events.back().detail, "n=9");
}

TEST(EventLogTest, SinceAndOfKindFilter) {
  obs::EventLog log(16);
  log.Record(obs::EventKind::kWalTornTail, "dropped_bytes=12");
  log.Record(obs::EventKind::kCheckpointSaved);
  log.Record(obs::EventKind::kWalTornTail, "dropped_bytes=7");
  EXPECT_EQ(log.Since(1).size(), 2u);
  EXPECT_EQ(log.Since(3).size(), 0u);
  std::vector<obs::Event> torn = log.OfKind(obs::EventKind::kWalTornTail);
  ASSERT_EQ(torn.size(), 2u);
  EXPECT_EQ(torn[1].detail, "dropped_bytes=7");
}

TEST(EventLogTest, ClearKeepsSequenceAdvancing) {
  obs::EventLog log(8);
  log.Record(obs::EventKind::kAlert);
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  log.Record(obs::EventKind::kAlert);
  EXPECT_EQ(log.Snapshot().front().seq, 2u);
}

TEST(EventLogTest, JsonShape) {
  obs::EventLog log(8);
  log.Record(obs::EventKind::kReadOnlyDemotion, "reason=EIO");
  std::string json = log.ToJson();
  EXPECT_NE(json.find("\"total\":1"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"read_only_demotion\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"reason=EIO\""), std::string::npos);
}

TEST(EventLogTest, KindNamesCoverTaxonomy) {
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kRecoveryStart),
               "recovery_start");
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kDegradedNavigation),
               "degraded_navigation");
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kAlert), "alert");
}

// --- TelemetrySampler ----------------------------------------------------

// A deterministic collector the tests can steer between samples.
struct FakeSource {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t hops = 0;
  obs::HotHistogram sync_us;

  obs::TelemetryCollector Collector() {
    return [this](obs::MetricsRegistry* registry) {
      registry->Set("live.buffer.hits", hits);
      registry->Set("live.buffer.misses", misses);
      registry->Set("live.degraded.hops", hops);
      registry->SetHistogram("live.storage.sync_us", sync_us.snapshot());
    };
  }
};

obs::TelemetrySampler::Options TestOptions(FakeSource* source) {
  obs::TelemetrySampler::Options opts;
  opts.interval_ms = 0;  // tests drive SampleOnce() directly
  opts.collector = source->Collector();
  return opts;
}

TEST(TelemetrySamplerTest, DeltasAndRatesAgainstPreviousSample) {
  FakeSource source;
  source.hits = 100;
  obs::TelemetrySampler sampler(TestOptions(&source));
  obs::TelemetrySample first = sampler.SampleOnce();
  EXPECT_EQ(first.seq, 1u);
  EXPECT_EQ(first.dt_us, 0u);
  EXPECT_EQ(first.counter("live.buffer.hits"), 100u);
  EXPECT_EQ(first.delta("live.buffer.hits"), 0u);

  source.hits = 250;
  source.sync_us.Observe(300);
  obs::TelemetrySample second = sampler.SampleOnce();
  EXPECT_EQ(second.seq, 2u);
  EXPECT_GT(second.dt_us, 0u);
  EXPECT_EQ(second.delta("live.buffer.hits"), 150u);
  EXPECT_GT(second.rate("live.buffer.hits"), 0.0);
  EXPECT_EQ(second.histogram_delta("live.storage.sync_us").count, 1u);
  EXPECT_EQ(sampler.samples_taken(), 2u);

  obs::TelemetrySample latest;
  ASSERT_TRUE(sampler.Latest(&latest));
  EXPECT_EQ(latest.seq, 2u);
}

TEST(TelemetrySamplerTest, RingIsBounded) {
  FakeSource source;
  obs::TelemetrySampler::Options opts = TestOptions(&source);
  opts.ring_capacity = 3;
  obs::TelemetrySampler sampler(opts);
  for (int i = 0; i < 8; ++i) sampler.SampleOnce();
  std::vector<obs::TelemetrySample> samples = sampler.Samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples.front().seq, 6u);  // oldest retained
  EXPECT_EQ(samples.back().seq, 8u);
  EXPECT_EQ(sampler.samples_taken(), 8u);
}

TEST(TelemetrySamplerTest, AlertsAreEdgeTriggered) {
  FakeSource source;
  obs::TelemetrySampler sampler(TestOptions(&source));
  sampler.AddRule(
      obs::CounterRateAbove("degraded", "live.degraded.hops", 0.0));
  std::vector<std::string> fired;
  sampler.OnAlert([&fired](const obs::AlertFiring& firing) {
    fired.push_back(firing.rule);
  });

  sampler.SampleOnce();  // first sample: no window, no evaluation
  EXPECT_TRUE(fired.empty());

  source.hops = 5;
  sampler.SampleOnce();  // false -> true edge: fires
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], "degraded");

  source.hops = 9;
  sampler.SampleOnce();  // still true: no re-fire
  EXPECT_EQ(fired.size(), 1u);

  sampler.SampleOnce();  // no new hops: rate 0, rule re-arms
  source.hops = 12;
  sampler.SampleOnce();  // second edge: fires again
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_EQ(sampler.Firings().size(), 2u);
  EXPECT_EQ(sampler.Firings()[0].sample_seq, 2u);
}

TEST(TelemetrySamplerTest, FiringsBecomeAlertEvents) {
  obs::EventLog& log = obs::EventLog::Instance();
  const uint64_t before = log.total_recorded();
  FakeSource source;
  obs::TelemetrySampler sampler(TestOptions(&source));
  sampler.AddRule(
      obs::CounterRateAbove("degraded", "live.degraded.hops", 0.0));
  sampler.SampleOnce();
  source.hops = 1;
  sampler.SampleOnce();
  std::vector<obs::Event> alerts = log.OfKind(obs::EventKind::kAlert);
  ASSERT_FALSE(alerts.empty());
  EXPECT_GT(log.total_recorded(), before);
  EXPECT_NE(alerts.back().detail.find("degraded"), std::string::npos);
}

TEST(TelemetrySamplerTest, RatioBelowRespectsMinimumEvents) {
  FakeSource source;
  obs::TelemetrySampler sampler(TestOptions(&source));
  sampler.AddRule(obs::RatioBelow("hit_ratio", "live.buffer.hits",
                                  "live.buffer.misses", 0.95,
                                  /*min_events=*/64));
  sampler.SampleOnce();
  // 10 events at ratio 0.5: far below the floor, but under min_events.
  source.hits = 5;
  source.misses = 5;
  sampler.SampleOnce();
  EXPECT_TRUE(sampler.Firings().empty());
  // 100 more events at ratio 0.5: now it fires.
  source.hits = 55;
  source.misses = 55;
  sampler.SampleOnce();
  ASSERT_EQ(sampler.Firings().size(), 1u);
  EXPECT_EQ(sampler.Firings()[0].rule, "hit_ratio");
}

TEST(TelemetrySamplerTest, HistogramP99RuleFiresOnSlowWindow) {
  FakeSource source;
  obs::TelemetrySampler sampler(TestOptions(&source));
  sampler.AddRule(obs::HistogramP99Above("slow_sync", "live.storage.sync_us",
                                         /*ceiling_us=*/1000,
                                         /*min_count=*/4));
  sampler.SampleOnce();
  for (int i = 0; i < 8; ++i) source.sync_us.Observe(50);
  sampler.SampleOnce();  // fast window: quiet
  EXPECT_TRUE(sampler.Firings().empty());
  for (int i = 0; i < 8; ++i) source.sync_us.Observe(100000);
  sampler.SampleOnce();  // slow window: fires
  ASSERT_EQ(sampler.Firings().size(), 1u);
  EXPECT_EQ(sampler.Firings()[0].rule, "slow_sync");
}

TEST(TelemetrySamplerTest, DefaultRulesCoverTheStockConditions) {
  std::vector<obs::AlertRule> rules = obs::DefaultAlertRules(0.95, 100000);
  ASSERT_EQ(rules.size(), 4u);
  EXPECT_EQ(rules[0].name, "degraded_navigation");
  EXPECT_EQ(rules[1].name, "buffer_hit_ratio");
  EXPECT_EQ(rules[2].name, "sync_latency_p99");
  EXPECT_EQ(rules[3].name, "txn_conflict_ratio");
}

TEST(TelemetrySamplerTest, TxnConflictRatioRespectsMinimumAttempts) {
  uint64_t commits = 0, conflicts = 0;
  obs::TelemetrySampler::Options opts;
  opts.interval_ms = 0;
  opts.collector = [&](obs::MetricsRegistry* registry) {
    registry->Set("live.txn.commits", commits);
    registry->Set("live.txn.conflicts", conflicts);
  };
  obs::TelemetrySampler sampler(opts);
  sampler.AddRule(obs::TxnConflictRatioAbove("txn_conflict_ratio", 0.5, 16));
  sampler.SampleOnce();  // baseline

  // High conflict ratio, but only 8 attempts in the window: below min_events.
  commits += 2;
  conflicts += 6;
  sampler.SampleOnce();
  EXPECT_TRUE(sampler.Firings().empty());

  // 20 attempts at 80% conflicts: fires, and the detail names the ratio.
  commits += 4;
  conflicts += 16;
  sampler.SampleOnce();
  ASSERT_EQ(sampler.Firings().size(), 1u);
  EXPECT_EQ(sampler.Firings()[0].rule, "txn_conflict_ratio");
  EXPECT_NE(sampler.Firings()[0].detail.find("conflict_ratio="),
            std::string::npos);

  // A healthy window re-arms the edge trigger.
  commits += 32;
  sampler.SampleOnce();
  EXPECT_EQ(sampler.Firings().size(), 1u);
}

TEST(TelemetrySamplerTest, CollectLiveExportsTheTxnSurface) {
  obs::LiveTelemetry& hub = obs::LiveTelemetry::Instance();
  hub.Reset();
  hub.txn_commits.Inc();
  hub.txn_commits.Inc();
  hub.txn_conflicts.Inc();
  hub.snapshot_age_epochs.Set(7);
  obs::MetricsRegistry registry;
  obs::CollectLive(&registry);
  EXPECT_EQ(registry.counter("live.txn.commits"), 2u);
  EXPECT_EQ(registry.counter("live.txn.conflicts"), 1u);
  EXPECT_EQ(registry.counter("live.txn.snapshot_age"), 7u);
  // The whole surface rides the existing Prometheus exposition.
  std::string text = obs::ToPrometheusText(registry);
  EXPECT_NE(text.find("asr_live_txn_commits 2\n"), std::string::npos);
  EXPECT_NE(text.find("asr_live_txn_conflicts 1\n"), std::string::npos);
  EXPECT_NE(text.find("asr_live_txn_snapshot_age 7\n"), std::string::npos);
  // Edge operations block on their claims, so there is no retry histogram.
  EXPECT_EQ(text.find("asr_live_txn_retries"), std::string::npos);
  hub.Reset();
}

TEST(TelemetrySamplerTest, BackgroundThreadSamplesAndStops) {
  FakeSource source;
  obs::TelemetrySampler::Options opts = TestOptions(&source);
  opts.interval_ms = 1;
  obs::TelemetrySampler sampler(opts);
  ASSERT_TRUE(sampler.Start());
  EXPECT_TRUE(sampler.running());
  while (sampler.samples_taken() < 3) std::this_thread::yield();
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  const uint64_t settled = sampler.samples_taken();
  EXPECT_GE(settled, 3u);
  EXPECT_EQ(sampler.samples_taken(), settled) << "thread must be joined";
}

TEST(TelemetrySamplerTest, ConcurrentHubWritersWhileSampling) {
  // The TSan job leans on this test: the default CollectLive collector
  // reads the hub on a 1ms cadence while writer threads hammer every
  // shared counter and histogram. A non-atomic access anywhere in the
  // snapshot path is a hard race here.
  obs::LiveTelemetry& hub = obs::LiveTelemetry::Instance();
  hub.Reset();
  obs::TelemetrySampler::Options opts;
  opts.interval_ms = 1;  // collector defaults to CollectLive
  obs::TelemetrySampler sampler(opts);
  ASSERT_TRUE(sampler.Start());
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&hub] {
      for (int i = 0; i < 20000; ++i) {
        hub.buffer_hits.Inc();
        hub.degraded_hops.Inc();
        hub.storage_read_us.Observe(static_cast<uint64_t>(i % 512));
        hub.wal_sync_us.Observe(300);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  while (sampler.samples_taken() < 2) std::this_thread::yield();
  sampler.Stop();
  // A quiescent sample after the writers joined sees the exact totals.
  obs::TelemetrySample last = sampler.SampleOnce();
  EXPECT_EQ(last.counter("live.buffer.hits"), 40000u);
  EXPECT_EQ(last.counter("live.degraded.hops"), 40000u);
  EXPECT_EQ(last.histograms.at("live.storage.read_us").count, 40000u);
  EXPECT_EQ(last.histograms.at("live.wal.sync_us").count, 40000u);
  hub.Reset();
}

TEST(TelemetrySamplerTest, StartIsNoOpAtIntervalZero) {
  FakeSource source;
  obs::TelemetrySampler sampler(TestOptions(&source));
  EXPECT_FALSE(sampler.Start());
  EXPECT_FALSE(sampler.running());
}

TEST(TelemetrySamplerTest, OptionsFromEnv) {
  ::setenv("ASR_TELEMETRY_MS", "125", 1);
  EXPECT_EQ(obs::TelemetrySampler::Options::FromEnv().interval_ms, 125u);
  ::setenv("ASR_TELEMETRY_MS", "nonsense", 1);
  EXPECT_EQ(obs::TelemetrySampler::Options::FromEnv().interval_ms, 0u);
  ::unsetenv("ASR_TELEMETRY_MS");
  EXPECT_EQ(obs::TelemetrySampler::Options::FromEnv().interval_ms, 0u);
}

TEST(TelemetrySamplerTest, JsonShape) {
  FakeSource source;
  obs::TelemetrySampler sampler(TestOptions(&source));
  sampler.SampleOnce();
  std::string json = sampler.ToJson();
  EXPECT_NE(json.find("\"interval_ms\":0"), std::string::npos);
  EXPECT_NE(json.find("\"samples\":["), std::string::npos);
  EXPECT_NE(json.find("\"alerts\":["), std::string::npos);
}

TEST(LiveTelemetryTest, CollectLiveExportsHubNames) {
  obs::LiveTelemetry& hub = obs::LiveTelemetry::Instance();
  hub.Reset();
  hub.buffer_hits.Inc(7);
  hub.storage_sync_us.Observe(123);
  obs::MetricsRegistry registry;
  obs::CollectLive(&registry);
  EXPECT_EQ(registry.counter("live.buffer.hits"), 7u);
  EXPECT_EQ(registry.histogram("live.storage.sync_us").count, 1u);
  hub.Reset();
}

#else  // !ASR_METRICS_ENABLED

// --- Compile-out contract ------------------------------------------------

TEST(TelemetryOffTest, SamplerNeverRunsAndSamplesAreEmpty) {
  obs::TelemetrySampler sampler;
  EXPECT_FALSE(sampler.Start());
  EXPECT_FALSE(sampler.running());
  obs::TelemetrySample s = sampler.SampleOnce();
  EXPECT_TRUE(s.counters.empty());
  EXPECT_TRUE(sampler.Samples().empty());
}

TEST(TelemetryOffTest, EventLogRecordsNothing) {
  obs::EventLog log(8);
  log.Record(obs::EventKind::kAlert, "ignored");
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_recorded(), 0u);
}

TEST(TelemetryOffTest, SharedTypesAreInert) {
  obs::SharedCounter c;
  c.Inc(5);
  EXPECT_EQ(c.value(), 0u);
  obs::SharedHistogram h;
  h.Observe(100);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(obs::MonotonicMicros(), 0u);
}

#endif  // ASR_METRICS_ENABLED

// --- Prometheus exposition (format-only, metrics mode agnostic) ----------

TEST(PrometheusTest, SanitizesMetricNames) {
  EXPECT_EQ(obs::PrometheusMetricName("storage.read.pages"),
            "asr_storage_read_pages");
  EXPECT_EQ(obs::PrometheusMetricName("live.wal.append_us"),
            "asr_live_wal_append_us");
}

TEST(PrometheusTest, HistogramBucketsAreCumulative) {
  obs::HistogramSnapshot s = MakeSnapshot({1, 3, 3, 100});
  std::string out;
  obs::AppendPrometheusHistogram("asr_t_us", s, &out);
  // Bucket (2,4] holds two observations; le="4" must include the le="1".
  EXPECT_NE(out.find("asr_t_us_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(out.find("asr_t_us_bucket{le=\"4\"} 3\n"), std::string::npos);
  EXPECT_NE(out.find("asr_t_us_bucket{le=\"128\"} 4\n"), std::string::npos);
  EXPECT_NE(out.find("asr_t_us_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(out.find("asr_t_us_sum 107\n"), std::string::npos);
  EXPECT_NE(out.find("asr_t_us_count 4\n"), std::string::npos);
}

TEST(PrometheusTest, RegistryExposesCountersAndHistograms) {
  obs::MetricsRegistry registry;
  registry.Set("disk.page_reads", 42);
  registry.SetHistogram("disk.read_us", MakeSnapshot({5, 9}));
  std::string text = obs::ToPrometheusText(registry);
  EXPECT_NE(text.find("# TYPE asr_disk_page_reads counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("asr_disk_page_reads 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE asr_disk_read_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("asr_disk_read_us_count 2\n"), std::string::npos);
}

}  // namespace
}  // namespace asr
