// Observability subsystem: JSON writer, metrics registry, trace spans,
// EXPLAIN, and drift reports.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "asr/access_support_relation.h"
#include "asr/decomposition.h"
#include "asr/query.h"
#include "cost/profile.h"
#include "gtest/gtest.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"
#include "storage/buffer_manager.h"
#include "storage/disk.h"
#include "workload/meter.h"
#include "workload/synthetic_base.h"

namespace asr {
namespace {

// --- JsonWriter ----------------------------------------------------------

TEST(JsonWriterTest, NestedObjectsAndArrays) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("a");
  json.Int(-3);
  json.Key("b");
  json.BeginArray();
  json.UInt(1);
  json.String("two");
  json.Bool(true);
  json.Null();
  json.EndArray();
  json.Key("c");
  json.BeginObject();
  json.Key("d");
  json.Double(0.5);
  json.EndObject();
  json.EndObject();
  EXPECT_EQ(json.str(),
            "{\"a\":-3,\"b\":[1,\"two\",true,null],\"c\":{\"d\":0.5}}");
}

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(obs::JsonWriter::Escape("a\"b\\c\n\t\x01"),
            "a\\\"b\\\\c\\n\\t\\u0001");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter json;
  json.BeginArray();
  json.Double(std::nan(""));
  json.Double(INFINITY);
  json.EndArray();
  EXPECT_EQ(json.str(), "[null,null]");
}

// --- Metrics registry ----------------------------------------------------

TEST(MetricsRegistryTest, CountersSetAddAndDump) {
  obs::MetricsRegistry reg;
  reg.Set("b.count", 2);
  reg.Add("a.count", 1);
  reg.Add("a.count", 4);
  EXPECT_EQ(reg.counter("a.count"), 5u);
  EXPECT_EQ(reg.counter("b.count"), 2u);
  EXPECT_TRUE(reg.HasCounter("a.count"));
  EXPECT_FALSE(reg.HasCounter("missing"));
  EXPECT_EQ(reg.counter("missing"), 0u);
  // ToText is sorted by name (std::map storage).
  EXPECT_EQ(reg.ToText(), "a.count 5\nb.count 2\n");
}

TEST(MetricsRegistryTest, MergeFoldsCountersAndHistograms) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.Set("x", 1);
  b.Set("x", 2);
  b.Set("y", 7);
  obs::HistogramSnapshot h;
  h.count = 2;
  h.sum = 10;
  h.max = 8;
  h.buckets[3] = 2;  // bucket 3 covers (4, 8]
  a.SetHistogram("lat", h);
  b.SetHistogram("lat", h);
  a.MergeFrom(b);
  EXPECT_EQ(a.counter("x"), 3u);
  EXPECT_EQ(a.counter("y"), 7u);
  EXPECT_EQ(a.histogram("lat").count, 4u);
  EXPECT_EQ(a.histogram("lat").sum, 20u);
  EXPECT_EQ(a.histogram("lat").max, 8u);
}

TEST(MetricsRegistryTest, JsonDumpIsWellFormedObject) {
  obs::MetricsRegistry reg;
  reg.Set("c", 1);
  std::string json = reg.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c\":1"), std::string::npos);
}

#if ASR_METRICS_ENABLED
TEST(HotHistogramTest, PowerOfTwoBuckets) {
  // Bucket b covers (2^{b-1}, 2^b]; values 0 and 1 land in bucket 0.
  EXPECT_EQ(obs::HotHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(obs::HotHistogram::BucketIndex(1), 0u);
  EXPECT_EQ(obs::HotHistogram::BucketIndex(2), 1u);
  EXPECT_EQ(obs::HotHistogram::BucketIndex(3), 2u);
  EXPECT_EQ(obs::HotHistogram::BucketIndex(4), 2u);
  EXPECT_EQ(obs::HotHistogram::BucketIndex(5), 3u);
  EXPECT_EQ(obs::HotHistogram::BucketIndex(1ull << 40),
            obs::kHistogramBuckets - 1);

  obs::HotHistogram h;
  h.Observe(1);
  h.Observe(4);
  h.Observe(100);
  obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 105u);
  EXPECT_EQ(snap.max, 100u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 35.0);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[obs::HotHistogram::BucketIndex(100)], 1u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
}
#endif

// --- Trace spans ---------------------------------------------------------

TEST(SpanTest, InertWithoutContext) {
  obs::ScopedSpan span("orphan");
  EXPECT_FALSE(span.active());
  span.Attr("ignored", uint64_t{1});  // must not crash
}

TEST(SpanTest, AttributesPageCostsToNestedSpans) {
  storage::Disk disk;
  uint32_t seg = disk.CreateSegment("seg");
  storage::Page page{};
  disk.AllocatePage(seg);
  disk.AllocatePage(seg);

  obs::ProbeFn probe = [&disk] {
    obs::CostProbe p;
    storage::AccessStats st = disk.stats();
    p.page_reads = st.page_reads;
    p.page_writes = st.page_writes;
    return p;
  };

  obs::TraceContext ctx("root", probe);
  {
    obs::ScopedSpan outer("outer");
    ASSERT_TRUE(disk.ReadPage(storage::PageId{seg, 0}, &page).ok());
    {
      obs::ScopedSpan inner("inner");
      inner.Attr("k", std::string("v"));
      ASSERT_TRUE(disk.ReadPage(storage::PageId{seg, 1}, &page).ok());
      ASSERT_TRUE(disk.WritePage(storage::PageId{seg, 1}, page).ok());
    }
  }
  obs::Trace trace = ctx.Finish();
  ASSERT_FALSE(trace.empty());
  const obs::SpanNode& root = trace.root();
  EXPECT_EQ(root.name, "root");
  EXPECT_EQ(root.page_reads, 2u);
  EXPECT_EQ(root.page_writes, 1u);
  ASSERT_EQ(root.children.size(), 1u);
  const obs::SpanNode& outer = *root.children[0];
  EXPECT_EQ(outer.page_reads, 2u);  // includes the nested span
  ASSERT_EQ(outer.children.size(), 1u);
  const obs::SpanNode& inner = *outer.children[0];
  EXPECT_EQ(inner.page_reads, 1u);
  EXPECT_EQ(inner.page_writes, 1u);
  ASSERT_EQ(inner.attrs.size(), 1u);
  EXPECT_EQ(inner.attrs[0].first, "k");

  std::string text = trace.ToText();
  EXPECT_NE(text.find("root"), std::string::npos);
  EXPECT_NE(text.find("  outer"), std::string::npos);
  EXPECT_NE(text.find("    inner [k=v]"), std::string::npos);
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"children\""), std::string::npos);
}

TEST(SpanTest, FinishRestoresEnclosingContext) {
  obs::TraceContext outer("outer", nullptr);
  {
    obs::TraceContext inner("inner", nullptr);
    EXPECT_EQ(obs::TraceContext::Current(), &inner);
    inner.Finish();
  }
  EXPECT_EQ(obs::TraceContext::Current(), &outer);
  outer.Finish();
  EXPECT_EQ(obs::TraceContext::Current(), nullptr);
}

// --- EXPLAIN over a synthetic base ---------------------------------------

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cost::ApplicationProfile profile;
    profile.n = 3;
    profile.c = {40, 40, 40, 40};
    profile.d = {35, 35, 35};
    profile.fan = {2, 2, 2};
    ASSERT_TRUE(profile.Validate().ok());
    base_ = workload::SyntheticBase::Generate(profile).value();
    asr_ = AccessSupportRelation::Build(
               base_->store(), base_->path(), ExtensionKind::kFull,
               Decomposition::Of({0, 2, 3}, base_->path().n()).value())
               .value();
  }

  // Value of the root span's attribute `key` ("" when absent).
  static std::string RootAttr(const ExplainResult& r, const std::string& key) {
    for (const auto& [k, v] : r.trace.root().attrs) {
      if (k == key) return v;
    }
    return "";
  }

  std::unique_ptr<workload::SyntheticBase> base_;
  std::unique_ptr<AccessSupportRelation> asr_;
};

TEST_F(ExplainTest, ForwardSupportedProducesHopSpans) {
  QueryEvaluator eval(base_->store(), &base_->path());
  AsrKey start = AsrKey::FromOid(base_->objects_at(0).front());
  ExplainResult r =
      eval.Explain(QueryDir::kForward, start, 0, 3, asr_.get()).value();
  EXPECT_TRUE(r.used_asr);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.root().name, "query");
  // Two partitions, so a nonempty result needs two hop spans.
  ASSERT_GE(r.trace.root().children.size(), 1u);
  EXPECT_EQ(r.trace.root().children[0]->name, "hop");
  // The root carries the HopPlan: two cluster lookups over (0,2,3).
  EXPECT_EQ(RootAttr(r, "plan"), "lookup p0.fwd 0->2; lookup p1.fwd 2->3");

  // Same answer as the untraced evaluation.
  std::vector<AsrKey> plain = asr_->EvalForward(start, 0, 3).value();
  EXPECT_EQ(r.keys, plain);
}

TEST_F(ExplainTest, BackwardSupportedProducesHopSpans) {
  QueryEvaluator eval(base_->store(), &base_->path());
  AsrKey start = AsrKey::FromOid(base_->objects_at(0).front());
  std::vector<AsrKey> ends = asr_->EvalForward(start, 0, 3).value();
  ASSERT_FALSE(ends.empty());
  ExplainResult r =
      eval.Explain(QueryDir::kBackward, ends.front(), 0, 3, asr_.get())
          .value();
  EXPECT_TRUE(r.used_asr);
  ASSERT_FALSE(r.trace.empty());
  ASSERT_GE(r.trace.root().children.size(), 1u);
  EXPECT_EQ(r.trace.root().children[0]->name, "hop");
  EXPECT_EQ(RootAttr(r, "plan"), "lookup p1.bwd 3->2; lookup p0.bwd 2->0");
  // The start object must be among the backward answers.
  EXPECT_NE(std::find(r.keys.begin(), r.keys.end(), start), r.keys.end());
}

TEST_F(ExplainTest, NavigationalFallbackWithoutAsr) {
  QueryEvaluator eval(base_->store(), &base_->path());
  AsrKey start = AsrKey::FromOid(base_->objects_at(0).front());
  ExplainResult fwd = eval.Explain(QueryDir::kForward, start, 0, 3).value();
  EXPECT_FALSE(fwd.used_asr);
  EXPECT_EQ(RootAttr(fwd, "plan"), "navigational");
  ASSERT_FALSE(fwd.trace.empty());
  ASSERT_GE(fwd.trace.root().children.size(), 1u);
  EXPECT_EQ(fwd.trace.root().children[0]->name, "level");

  ASSERT_FALSE(fwd.keys.empty());
  ExplainResult bwd =
      eval.Explain(QueryDir::kBackward, fwd.keys.front(), 0, 3).value();
  EXPECT_FALSE(bwd.used_asr);
  ASSERT_FALSE(bwd.trace.empty());
  EXPECT_EQ(bwd.trace.root().children[0]->name, "extent_scan");
}

#if ASR_METRICS_ENABLED
TEST_F(ExplainTest, ComponentExportsFeedOneRegistry) {
  QueryEvaluator eval(base_->store(), &base_->path());
  AsrKey start = AsrKey::FromOid(base_->objects_at(0).front());
  asr_->EvalForward(start, 0, 3).value();

  obs::MetricsRegistry reg;
  base_->disk()->ExportMetrics(&reg, "disk");
  base_->buffers()->ExportMetrics(&reg, "buffers");
  asr_->ExportMetrics(&reg, "asr");
  eval.ExportMetrics(&reg, "query");
  EXPECT_GT(reg.counter("disk.reads"), 0u);
  EXPECT_EQ(reg.counter("asr.queries.forward"), 1u);
  EXPECT_EQ(reg.counter("asr.hops.lookup"), 2u);
  EXPECT_GT(reg.histogram("asr.frontier_size").count, 0u);
  // Per-partition tree counters are forwarded under the ASR prefix.
  std::string text = reg.ToText();
  EXPECT_NE(text.find(".fwd.descents"), std::string::npos);
}

TEST(MeterTest, BufferOverloadReportsHitMissDeltas) {
  storage::Disk disk;
  uint32_t seg = disk.CreateSegment("seg");
  storage::BufferManager buffers(&disk, /*capacity=*/4);
  storage::PageId id = disk.AllocatePage(seg);

  workload::MeterResult r = workload::Meter(&buffers, [&] {
    buffers.Pin(id);  // cold: miss
    buffers.Pin(id);  // warm: hit
  });
  EXPECT_EQ(r.buffer_misses, 1u);
  EXPECT_EQ(r.buffer_hits, 1u);
  EXPECT_EQ(r.page_reads, 1u);

  // The Disk overload still compiles and slices into AccessStats.
  storage::AccessStats st = workload::Meter(&disk, [&] {
    storage::Page page{};
    ASSERT_TRUE(disk.ReadPage(id, &page).ok());
  });
  EXPECT_EQ(st.page_reads, 1u);
}
#endif

// --- Drift report --------------------------------------------------------

TEST(DriftReportTest, RelativeErrorPerRow) {
  obs::DriftReport report("bench", "profile");
  report.AddRow("exact", 10, 10);
  report.AddRow("off", 10, 15);
  report.AddModelRow("model-only", 42);
  ASSERT_EQ(report.rows().size(), 3u);
  EXPECT_DOUBLE_EQ(report.rows()[0].RelError(), 0.0);
  EXPECT_DOUBLE_EQ(report.rows()[1].RelError(), 0.5);
  EXPECT_FALSE(report.rows()[2].has_observed);
  EXPECT_DOUBLE_EQ(report.MaxRelError(), 0.5);
}

TEST(DriftReportTest, JsonCarriesRowsMetaAndRegistry) {
  obs::DriftReport report("mybench", "fig6");
  report.AddMeta("seed", "7");
  report.AddRow("op1", 4, 5);
  report.metrics()->Set("disk.reads", 11);
  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"bench\":\"mybench\""), std::string::npos);
  EXPECT_NE(json.find("\"profile\":\"fig6\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":\"7\""), std::string::npos);
  EXPECT_NE(json.find("\"op\":\"op1\""), std::string::npos);
  EXPECT_NE(json.find("\"rel_error\""), std::string::npos);
  EXPECT_NE(json.find("\"disk.reads\":11"), std::string::npos);
}

TEST(DriftReportTest, WriteFileRoundTrips) {
  obs::DriftReport report("bench", "p");
  report.AddRow("op", 1, 2);
  std::string path = ::testing::TempDir() + "drift_test.json";
  ASSERT_TRUE(report.WriteFile(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), report.ToJson() + "\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace asr
