#include "obs/sampler.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/events.h"
#include "obs/json.h"
#include "obs/latency.h"

namespace asr::obs {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

uint64_t TelemetrySample::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

uint64_t TelemetrySample::delta(const std::string& name) const {
  auto it = counter_deltas.find(name);
  return it == counter_deltas.end() ? 0 : it->second;
}

double TelemetrySample::rate(const std::string& name) const {
  auto it = rates.find(name);
  return it == rates.end() ? 0.0 : it->second;
}

HistogramSnapshot TelemetrySample::histogram_delta(
    const std::string& name) const {
  auto it = histogram_deltas.find(name);
  return it == histogram_deltas.end() ? HistogramSnapshot{} : it->second;
}

AlertRule CounterRateAbove(const std::string& rule, const std::string& name,
                           double per_second) {
  AlertRule r;
  r.name = rule;
  r.predicate = [name, per_second](const TelemetrySample& s) {
    return s.rate(name) > per_second;
  };
  r.describe = [name](const TelemetrySample& s) {
    return name + "/s=" + FormatDouble(s.rate(name));
  };
  return r;
}

AlertRule RatioBelow(const std::string& rule, const std::string& num,
                     const std::string& den, double ratio,
                     uint64_t min_events) {
  AlertRule r;
  r.name = rule;
  r.predicate = [num, den, ratio, min_events](const TelemetrySample& s) {
    uint64_t n = s.delta(num);
    uint64_t total = n + s.delta(den);
    if (total < min_events) return false;
    return static_cast<double>(n) / static_cast<double>(total) < ratio;
  };
  r.describe = [num, den](const TelemetrySample& s) {
    uint64_t n = s.delta(num);
    uint64_t total = n + s.delta(den);
    double observed =
        total == 0 ? 0.0
                   : static_cast<double>(n) / static_cast<double>(total);
    return "ratio=" + FormatDouble(observed) +
           " window_events=" + std::to_string(total);
  };
  return r;
}

AlertRule HistogramP99Above(const std::string& rule, const std::string& name,
                            uint64_t ceiling_us, uint64_t min_count) {
  AlertRule r;
  r.name = rule;
  r.predicate = [name, ceiling_us, min_count](const TelemetrySample& s) {
    HistogramSnapshot d = s.histogram_delta(name);
    if (d.count < min_count) return false;
    return d.P99() > ceiling_us;
  };
  r.describe = [name](const TelemetrySample& s) {
    HistogramSnapshot d = s.histogram_delta(name);
    return "p99_us=" + std::to_string(d.P99()) +
           " window_count=" + std::to_string(d.count);
  };
  return r;
}

AlertRule TxnConflictRatioAbove(const std::string& rule, double ratio,
                                uint64_t min_events) {
  AlertRule r;
  r.name = rule;
  r.predicate = [ratio, min_events](const TelemetrySample& s) {
    uint64_t conflicts = s.delta("live.txn.conflicts");
    uint64_t total = conflicts + s.delta("live.txn.commits");
    if (total < min_events) return false;
    return static_cast<double>(conflicts) / static_cast<double>(total) > ratio;
  };
  r.describe = [](const TelemetrySample& s) {
    uint64_t conflicts = s.delta("live.txn.conflicts");
    uint64_t total = conflicts + s.delta("live.txn.commits");
    double observed =
        total == 0 ? 0.0
                   : static_cast<double>(conflicts) / static_cast<double>(total);
    return "conflict_ratio=" + FormatDouble(observed) +
           " window_attempts=" + std::to_string(total);
  };
  return r;
}

std::vector<AlertRule> DefaultAlertRules(double hit_ratio_floor,
                                         uint64_t sync_p99_ceiling_us) {
  std::vector<AlertRule> rules;
  rules.push_back(
      CounterRateAbove("degraded_navigation", "live.degraded.hops", 0.0));
  rules.push_back(RatioBelow("buffer_hit_ratio", "live.buffer.hits",
                             "live.buffer.misses", hit_ratio_floor, 64));
  rules.push_back(HistogramP99Above("sync_latency_p99",
                                    "live.storage.sync_us",
                                    sync_p99_ceiling_us, 4));
  rules.push_back(TxnConflictRatioAbove("txn_conflict_ratio", 0.5, 16));
  return rules;
}

void CollectLive(MetricsRegistry* registry) {
  LiveTelemetry& hub = LiveTelemetry::Instance();
  registry->Set("live.buffer.hits", hub.buffer_hits.value());
  registry->Set("live.buffer.misses", hub.buffer_misses.value());
  registry->Set("live.degraded.hops", hub.degraded_hops.value());
  registry->SetHistogram("live.storage.read_us",
                         hub.storage_read_us.snapshot());
  registry->SetHistogram("live.storage.write_us",
                         hub.storage_write_us.snapshot());
  registry->SetHistogram("live.storage.sync_us",
                         hub.storage_sync_us.snapshot());
  registry->SetHistogram("live.wal.append_us", hub.wal_append_us.snapshot());
  registry->SetHistogram("live.wal.sync_us", hub.wal_sync_us.snapshot());
  registry->Set("live.txn.commits", hub.txn_commits.value());
  registry->Set("live.txn.conflicts", hub.txn_conflicts.value());
  registry->Set("live.txn.snapshot_age", hub.snapshot_age_epochs.value());
}

TelemetrySampler::Options TelemetrySampler::Options::FromEnv() {
  Options o;
  o.interval_ms = 0;
  if (const char* env = std::getenv("ASR_TELEMETRY_MS")) {
    char* end = nullptr;
    unsigned long long ms = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') o.interval_ms = ms;
  }
  return o;
}

TelemetrySampler::TelemetrySampler() : TelemetrySampler(Options()) {}

TelemetrySampler::TelemetrySampler(Options options)
    : options_(std::move(options)) {
  if (!options_.collector) options_.collector = CollectLive;
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  if (options_.firing_capacity == 0) options_.firing_capacity = 1;
}

TelemetrySampler::~TelemetrySampler() { Stop(); }

void TelemetrySampler::AddRule(AlertRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.push_back(std::move(rule));
  rule_active_.push_back(false);
}

void TelemetrySampler::OnAlert(
    std::function<void(const AlertFiring&)> callback) {
  std::lock_guard<std::mutex> lock(mu_);
  callbacks_.push_back(std::move(callback));
}

bool TelemetrySampler::Start() {
#if ASR_METRICS_ENABLED
  std::lock_guard<std::mutex> lock(mu_);
  if (running_ || options_.interval_ms == 0) return running_;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { ThreadMain(); });
  return true;
#else
  return false;
#endif
}

void TelemetrySampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

bool TelemetrySampler::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void TelemetrySampler::ThreadMain() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                   [this] { return stop_requested_; });
      if (stop_requested_) return;
    }
    SampleOnce();
  }
}

TelemetrySample TelemetrySampler::SampleOnce() {
  TelemetrySample sample;
#if ASR_METRICS_ENABLED
  MetricsRegistry registry;
  options_.collector(&registry);

  std::vector<AlertFiring> fired;
  std::vector<std::function<void(const AlertFiring&)>> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sample.seq = next_seq_++;
    sample.t_us = MonotonicMicros();
    for (const auto& [name, value] : registry.Counters()) {
      sample.counters[name] = value;
    }
    for (const auto& [name, snap] : registry.Histograms()) {
      sample.histograms[name] = snap;
    }
    if (have_prev_) {
      sample.dt_us = sample.t_us - prev_.t_us;
      double dt_s = static_cast<double>(sample.dt_us) / 1e6;
      for (const auto& [name, value] : sample.counters) {
        uint64_t before = prev_.counter(name);
        uint64_t delta = value >= before ? value - before : 0;
        sample.counter_deltas[name] = delta;
        sample.rates[name] =
            dt_s > 0.0 ? static_cast<double>(delta) / dt_s : 0.0;
      }
      for (const auto& [name, snap] : sample.histograms) {
        auto it = prev_.histograms.find(name);
        sample.histogram_deltas[name] =
            it == prev_.histograms.end() ? snap : snap.DeltaSince(it->second);
      }
      // Alert rules see only complete windows.
      for (size_t i = 0; i < rules_.size(); ++i) {
        bool holds = rules_[i].predicate && rules_[i].predicate(sample);
        if (holds && !rule_active_[i]) {
          AlertFiring firing;
          firing.sample_seq = sample.seq;
          firing.t_us = sample.t_us;
          firing.rule = rules_[i].name;
          firing.detail =
              rules_[i].describe ? rules_[i].describe(sample) : std::string();
          if (firings_.size() == options_.firing_capacity) {
            firings_.erase(firings_.begin());
          }
          firings_.push_back(firing);
          fired.push_back(firing);
        }
        rule_active_[i] = holds;
      }
    }
    prev_ = sample;
    have_prev_ = true;
    if (ring_.size() == options_.ring_capacity) ring_.erase(ring_.begin());
    ring_.push_back(sample);
    if (!fired.empty()) callbacks = callbacks_;
  }
  // Events and subscriber callbacks run outside the sampler lock so a
  // callback may call back into Samples()/Firings().
  for (const AlertFiring& firing : fired) {
    ASR_EVENT(EventKind::kAlert, firing.rule + " " + firing.detail);
    for (const auto& callback : callbacks) callback(firing);
  }
#endif
  return sample;
}

std::vector<TelemetrySample> TelemetrySampler::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_;
}

bool TelemetrySampler::Latest(TelemetrySample* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return false;
  *out = ring_.back();
  return true;
}

std::vector<AlertFiring> TelemetrySampler::Firings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return firings_;
}

uint64_t TelemetrySampler::samples_taken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

void TelemetrySampler::WriteJson(JsonWriter* json) const {
  std::lock_guard<std::mutex> lock(mu_);
  json->BeginObject();
  json->Key("interval_ms");
  json->UInt(options_.interval_ms);
  json->Key("samples");
  json->BeginArray();
  for (const TelemetrySample& s : ring_) {
    json->BeginObject();
    json->Key("seq");
    json->UInt(s.seq);
    json->Key("t_us");
    json->UInt(s.t_us);
    json->Key("dt_us");
    json->UInt(s.dt_us);
    json->Key("counters");
    json->BeginObject();
    for (const auto& [name, value] : s.counters) {
      json->Key(name);
      json->UInt(value);
    }
    json->EndObject();
    json->Key("rates");
    json->BeginObject();
    for (const auto& [name, value] : s.rates) {
      json->Key(name);
      json->Double(value);
    }
    json->EndObject();
    json->Key("p99_us");
    json->BeginObject();
    for (const auto& [name, snap] : s.histograms) {
      json->Key(name);
      json->UInt(snap.P99());
    }
    json->EndObject();
    json->EndObject();
  }
  json->EndArray();
  json->Key("alerts");
  json->BeginArray();
  for (const AlertFiring& firing : firings_) {
    json->BeginObject();
    json->Key("sample_seq");
    json->UInt(firing.sample_seq);
    json->Key("t_us");
    json->UInt(firing.t_us);
    json->Key("rule");
    json->String(firing.rule);
    json->Key("detail");
    json->String(firing.detail);
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

std::string TelemetrySampler::ToJson() const {
  JsonWriter json;
  WriteJson(&json);
  return json.TakeString();
}

}  // namespace asr::obs
