#include "service/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util/jsonl.h"

namespace comparesets {

std::string RequestTrace::ToJson() const {
  // Built through JsonValue so string fields are escaped correctly;
  // std::map member order gives stable, diffable key order.
  JsonValue::Object object;
  object["request_id"] = static_cast<int64_t>(request_id);
  object["shard_id"] = static_cast<int64_t>(shard_id);
  object["corpus_epoch"] = static_cast<int64_t>(corpus_epoch);
  object["ingest_records"] = static_cast<int64_t>(ingest_records);
  object["target_id"] = target_id;
  object["selector"] = selector;
  object["status"] = status;
  object["tier"] = tier;
  object["objective_gap"] = objective_gap;
  object["priority"] = priority;
  object["attempts"] = attempts;
  object["cache_hit"] = cache_hit;
  object["result_cache_hit"] = result_cache_hit;
  object["solver_iterations"] = static_cast<int64_t>(solver_iterations);
  object["nnls_nonconverged"] = static_cast<int64_t>(nnls_nonconverged);
  object["intra_parallel_fanouts"] = static_cast<int64_t>(intra_parallel_fanouts);
  object["intra_parallel_tasks"] = static_cast<int64_t>(intra_parallel_tasks);
  if (!spans.empty()) {
    // Aggregate by name: parallel phases record spans in scheduling
    // order, and a JSON object keyed by name keeps the line diffable.
    JsonValue::Object span_object;
    for (const TraceSpan& span : spans) {
      auto it = span_object.find(span.name);
      if (it == span_object.end()) {
        span_object[span.name] = span.seconds;
      } else {
        it->second = JsonValue(it->second.as_number() + span.seconds);
      }
    }
    object["spans"] = JsonValue(std::move(span_object));
  }
  object["queue_seconds"] = queue_seconds;
  object["backoff_seconds"] = backoff_seconds;
  object["prepare_seconds"] = prepare_seconds;
  object["solve_seconds"] = solve_seconds;
  object["alignment_seconds"] = alignment_seconds;
  object["total_seconds"] = total_seconds;
  return JsonValue(std::move(object)).Dump();
}

void Histogram::Observe(double value) {
  int bucket = 0;
  if (value > 0.0) {
    bucket = static_cast<int>(std::floor(std::log10(value))) - kMinExponent;
    bucket = std::clamp(bucket, 0, kNumBuckets - 1);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
  sum_ += value;
  ++buckets_[bucket];
}

HistogramSnapshot Histogram::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  HistogramSnapshot snapshot;
  snapshot.count = count_;
  snapshot.sum = sum_;
  snapshot.min = min_;
  snapshot.max = max_;
  snapshot.mean = count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  snapshot.buckets.assign(buckets_, buckets_ + kNumBuckets);
  return snapshot;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_[name] = value;
}

void MetricsRegistry::SetTraceCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  trace_capacity_ = capacity;
  while (traces_.size() > trace_capacity_) traces_.pop_front();
}

void MetricsRegistry::RecordTrace(RequestTrace trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (trace_capacity_ == 0) return;
  if (traces_.size() >= trace_capacity_) traces_.pop_front();
  traces_.push_back(std::move(trace));
}

std::vector<RequestTrace> MetricsRegistry::Traces() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<RequestTrace>(traces_.begin(), traces_.end());
}

std::string MetricsRegistry::DumpTracesJsonl() const {
  std::string out;
  for (const RequestTrace& trace : Traces()) {
    out += trace.ToJson();
    out += '\n';
  }
  return out;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  // Copy instrument pointers under the lock, then read them unlocked
  // (counters are atomic; histograms snapshot under their own lock).
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  MetricsSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, c] : counters_) counters.emplace_back(name, c.get());
    for (const auto& [name, h] : histograms_) {
      histograms.emplace_back(name, h.get());
    }
    for (const auto& [name, v] : gauges_) snapshot.gauges.emplace_back(name, v);
  }
  for (const auto& [name, c] : counters) {
    snapshot.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, h] : histograms) {
    snapshot.histograms.emplace_back(name, h->Snapshot());
  }
  return snapshot;
}

namespace {

/// Prometheus metric names admit [a-zA-Z0-9_:] only; the registry's
/// dotted names map dots (and anything else exotic) to underscores.
std::string PrometheusName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

/// `name{labels}` or bare `name` when the label set is empty.
std::string Labeled(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  return name + "{" + labels + "}";
}

/// Same, with `le` appended to whatever labels are present.
std::string LabeledLe(const std::string& name, const std::string& labels,
                      const std::string& le) {
  std::string inner = labels.empty() ? "" : labels + ",";
  return name + "{" + inner + "le=\"" + le + "\"}";
}

/// One rendered metric family: the `# TYPE` header plus every labeled
/// sample, accumulated across label sets in insertion order.
struct Family {
  std::string type;
  std::string samples;
};

void RenderInto(std::map<std::string, Family>* families,
                const std::string& labels, const MetricsSnapshot& snapshot) {
  char line[256];
  for (const auto& [name, value] : snapshot.counters) {
    // The `_total` suffix is the Prometheus counter convention.
    std::string family = PrometheusName(name) + "_total";
    Family& slot = (*families)[family];
    slot.type = "counter";
    std::snprintf(line, sizeof(line), "%s %llu\n",
                  Labeled(family, labels).c_str(),
                  static_cast<unsigned long long>(value));
    slot.samples += line;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::string family = PrometheusName(name);
    Family& slot = (*families)[family];
    slot.type = "gauge";
    std::snprintf(line, sizeof(line), "%s %g\n",
                  Labeled(family, labels).c_str(), value);
    slot.samples += line;
  }
  for (const auto& [name, s] : snapshot.histograms) {
    std::string family = PrometheusName(name);
    Family& slot = (*families)[family];
    slot.type = "histogram";
    uint64_t cumulative = 0;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      cumulative += b < static_cast<int>(s.buckets.size()) ? s.buckets[b] : 0;
      // Bucket b spans [10^(b+kMin), 10^(b+kMin+1)); the last one clamps
      // everything above, so its upper bound is +Inf.
      std::string le;
      if (b == Histogram::kNumBuckets - 1) {
        le = "+Inf";
      } else {
        char bound[32];
        std::snprintf(bound, sizeof(bound), "%g",
                      std::pow(10.0, b + Histogram::kMinExponent + 1));
        le = bound;
      }
      std::snprintf(line, sizeof(line), "%s %llu\n",
                    LabeledLe(family + "_bucket", labels, le).c_str(),
                    static_cast<unsigned long long>(cumulative));
      slot.samples += line;
    }
    std::snprintf(line, sizeof(line), "%s %g\n",
                  Labeled(family + "_sum", labels).c_str(), s.sum);
    slot.samples += line;
    std::snprintf(line, sizeof(line), "%s %llu\n",
                  Labeled(family + "_count", labels).c_str(),
                  static_cast<unsigned long long>(s.count));
    slot.samples += line;
  }
}

}  // namespace

std::string MetricsRegistry::RenderPrometheus(
    const std::vector<std::pair<std::string, MetricsSnapshot>>& labeled) {
  // std::map keys the families by name, so the document is stable no
  // matter how the label sets interleave their instruments.
  std::map<std::string, Family> families;
  for (const auto& [labels, snapshot] : labeled) {
    RenderInto(&families, labels, snapshot);
  }
  std::string out;
  for (const auto& [name, family] : families) {
    out += "# TYPE " + name + " " + family.type + "\n";
    out += family.samples;
  }
  return out;
}

std::string MetricsRegistry::RenderPrometheus(
    const std::string& labels) const {
  return RenderPrometheus({{labels, Snapshot()}});
}

std::string MetricsRegistry::Dump() const {
  // Copy instrument pointers under the lock, then read them unlocked
  // (counters are atomic; histograms snapshot under their own lock).
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  std::vector<std::pair<std::string, double>> gauges;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, c] : counters_) counters.emplace_back(name, c.get());
    for (const auto& [name, h] : histograms_) {
      histograms.emplace_back(name, h.get());
    }
    for (const auto& [name, v] : gauges_) gauges.emplace_back(name, v);
  }

  std::string out;
  char line[256];
  for (const auto& [name, c] : counters) {
    std::snprintf(line, sizeof(line), "counter %s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out += line;
  }
  for (const auto& [name, value] : gauges) {
    std::snprintf(line, sizeof(line), "gauge %s %.6g\n", name.c_str(), value);
    out += line;
  }
  for (const auto& [name, h] : histograms) {
    HistogramSnapshot s = h->Snapshot();
    std::snprintf(line, sizeof(line),
                  "histogram %s count=%llu mean=%.6gs min=%.6gs max=%.6gs\n",
                  name.c_str(), static_cast<unsigned long long>(s.count),
                  s.mean, s.min, s.max);
    out += line;
  }
  return out;
}

}  // namespace comparesets
