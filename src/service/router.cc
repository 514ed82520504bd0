#include "service/router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "util/timer.h"

namespace comparesets {

const char* ShardStateName(ShardState state) {
  switch (state) {
    case ShardState::kServing:
      return "serving";
    case ShardState::kSwapping:
      return "swapping";
    case ShardState::kDown:
      return "down";
  }
  return "unknown";
}

ShardRouter::ShardRouter(std::vector<std::string> bounds,
                         std::vector<std::unique_ptr<ShardBackend>> backends,
                         RouterOptions options)
    : options_(std::move(options)),
      bounds_(std::move(bounds)),
      backends_(std::move(backends)),
      states_(std::make_unique<std::atomic<int>[]>(backends_.size())),
      pool_(options_.router_threads) {
  for (size_t s = 0; s < backends_.size(); ++s) {
    states_[s].store(static_cast<int>(ShardState::kServing));
  }
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Create(
    std::shared_ptr<const IndexedCorpus> corpus, size_t num_shards,
    RouterOptions options) {
  COMPARESETS_ASSIGN_OR_RETURN(
      LocalBackendSet local,
      CreateLocalBackends(std::move(corpus), num_shards, options.engine));
  return Create(std::move(local.bounds), std::move(local.backends),
                std::move(options));
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Create(
    std::vector<std::string> bounds,
    std::vector<std::unique_ptr<ShardBackend>> backends,
    RouterOptions options) {
  if (backends.empty()) {
    return Status::InvalidArgument("ShardRouter requires backends");
  }
  if (bounds.size() != backends.size()) {
    return Status::InvalidArgument(
        "ShardRouter needs one bound per backend: " +
        std::to_string(bounds.size()) + " bounds, " +
        std::to_string(backends.size()) + " backends");
  }
  if (bounds[0] != "") {
    return Status::InvalidArgument("bounds[0] must be the empty string");
  }
  if (!std::is_sorted(bounds.begin(), bounds.end())) {
    return Status::InvalidArgument("bounds must be sorted");
  }
  for (const auto& backend : backends) {
    if (backend == nullptr) {
      return Status::InvalidArgument("ShardRouter backend is null");
    }
  }
  return std::unique_ptr<ShardRouter>(new ShardRouter(
      std::move(bounds), std::move(backends), std::move(options)));
}

size_t ShardRouter::ShardForTarget(const std::string& target_id) const {
  // bounds_[0] == "", so upper_bound never returns begin(): every id —
  // known to the catalog or not — lands in exactly one range, and an
  // unknown id produces the same NotFound a single engine would.
  auto it = std::upper_bound(bounds_.begin(), bounds_.end(), target_id);
  return static_cast<size_t>(it - bounds_.begin()) - 1;
}

ShardKeyRange ShardRouter::RangeOf(size_t shard_id) const {
  ShardKeyRange range;
  range.begin = bounds_[shard_id];
  if (shard_id + 1 < bounds_.size()) range.end = bounds_[shard_id + 1];
  return range;
}

ShardState ShardRouter::StateOf(size_t shard_id) const {
  return static_cast<ShardState>(
      states_[shard_id].load(std::memory_order_acquire));
}

Status ShardRouter::CheckRoutable(size_t shard) const {
  ShardState state = StateOf(shard);
  if (state == ShardState::kServing) return Status::OK();
  metrics_.counter("router.unavailable").Increment();
  return Status::Unavailable("shard " + std::to_string(shard) + " " +
                             RangeOf(shard).ToString() + " is " +
                             ShardStateName(state));
}

Result<SelectResponse> ShardRouter::Select(const SelectRequest& request) const {
  metrics_.counter("router.requests").Increment();
  if (options_.fault_injector) {
    Status injected = options_.fault_injector->Inject(FaultSite::kRoute);
    if (!injected.ok()) {
      metrics_.counter("router.route_faults").Increment();
      return injected;
    }
  }
  size_t shard = ShardForTarget(request.target_id);
  COMPARESETS_RETURN_NOT_OK(CheckRoutable(shard));
  metrics_.counter("router.routed").Increment();
  metrics_.counter("router.shard_requests." + std::to_string(shard))
      .Increment();
  return backends_[shard]->Select(request);
}

std::vector<Result<SelectResponse>> ShardRouter::SelectBatch(
    const std::vector<SelectRequest>& requests) const {
  metrics_.counter("router.batches").Increment();
  metrics_.counter("router.requests").Increment(requests.size());
  std::vector<std::optional<Result<SelectResponse>>> slots(requests.size());

  // Scatter: route every request up front. Router-level refusals (route
  // faults, unavailable shards) land in their slots without touching
  // any shard; the rest are grouped per shard, original order kept.
  std::vector<std::vector<size_t>> by_shard(backends_.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (options_.fault_injector) {
      Status injected = options_.fault_injector->Inject(FaultSite::kRoute);
      if (!injected.ok()) {
        metrics_.counter("router.route_faults").Increment();
        slots[i] = injected;
        continue;
      }
    }
    size_t shard = ShardForTarget(requests[i].target_id);
    Status routable = CheckRoutable(shard);
    if (!routable.ok()) {
      slots[i] = routable;
      continue;
    }
    metrics_.counter("router.routed").Increment();
    metrics_.counter("router.shard_requests." + std::to_string(shard))
        .Increment();
    by_shard[shard].push_back(i);
  }

  // Gather: one task per shard with work. Each request's deadline spans
  // the whole gather — time lost before its shard dispatches (e.g. an
  // injected gather delay) is charged against it, so an expired request
  // is dropped HERE instead of burning a solve it can no longer use,
  // with the same message on every transport.
  Timer gather_timer;
  auto run_shard = [&](size_t shard) {
    if (options_.fault_injector) {
      Status injected = options_.fault_injector->Inject(FaultSite::kGather);
      if (!injected.ok()) {
        metrics_.counter("router.gather_faults").Increment();
        for (size_t i : by_shard[shard]) slots[i] = injected;
        return;
      }
    }
    double elapsed = gather_timer.ElapsedSeconds();
    std::vector<SelectRequest> sub;
    std::vector<size_t> sub_index;
    sub.reserve(by_shard[shard].size());
    sub_index.reserve(by_shard[shard].size());
    for (size_t i : by_shard[shard]) {
      if (requests[i].deadline_seconds > 0.0 &&
          requests[i].deadline_seconds <= elapsed) {
        metrics_.counter("router.gather_expired").Increment();
        slots[i] = Status::DeadlineExceeded(
            "deadline exceeded before gather dispatch to shard " +
            std::to_string(shard));
        continue;
      }
      sub.push_back(requests[i]);
      if (sub.back().deadline_seconds > 0.0) {
        sub.back().deadline_seconds -= elapsed;
      }
      sub_index.push_back(i);
    }
    if (sub.empty()) return;
    std::vector<Result<SelectResponse>> sub_responses =
        backends_[shard]->SelectBatch(sub);
    for (size_t j = 0; j < sub_index.size(); ++j) {
      slots[sub_index[j]] = std::move(sub_responses[j]);
    }
  };

  std::vector<size_t> active;
  for (size_t s = 0; s < by_shard.size(); ++s) {
    if (!by_shard[s].empty()) active.push_back(s);
  }
  if (active.size() <= 1 || pool_.num_threads() <= 1) {
    // Nothing to overlap (or a 1-lane router): run sub-batches serially
    // in shard order on the calling thread.
    for (size_t s : active) run_shard(s);
  } else {
    // Fan out one lane per active shard on the ROUTER's pool; each
    // engine then fans its sub-batch out on ITS pool. Distinct pools,
    // so the engine nesting rule is never violated by this outer layer.
    pool_.ParallelFor(active.size(),
                      [&](size_t k) { run_shard(active[k]); });
  }

  std::vector<Result<SelectResponse>> responses;
  responses.reserve(slots.size());
  for (auto& slot : slots) responses.push_back(std::move(*slot));
  return responses;
}

Status ShardRouter::PublishToShard(
    size_t shard_id, const std::string& counter,
    const std::function<Status(SelectionEngine*)>& op) {
  SelectionEngine* engine = backends_[shard_id]->local_engine();
  if (engine == nullptr) {
    return Status::NotImplemented("shard " + std::to_string(shard_id) + " (" +
                                 backends_[shard_id]->name() +
                                 ") has no local engine to publish to");
  }
  std::lock_guard<std::mutex> lock(admin_mutex_);
  // The shard goes kSwapping for the duration: its range answers
  // kUnavailable instead of mixing snapshots mid-publication. On any
  // failure the previous state (and the engine's previous snapshot)
  // are kept.
  int previous =
      states_[shard_id].exchange(static_cast<int>(ShardState::kSwapping),
                                 std::memory_order_acq_rel);
  Status status = op(engine);
  if (!status.ok()) {
    states_[shard_id].store(previous, std::memory_order_release);
    metrics_.counter(counter + "_failures").Increment();
    return status;
  }
  // A successful publication always leaves the shard serving — swapping
  // a fresh catalog into a kDown shard is how it is revived.
  states_[shard_id].store(static_cast<int>(ShardState::kServing),
                          std::memory_order_release);
  metrics_.counter(counter + "s").Increment();
  return Status::OK();
}

Status ShardRouter::SwapShardCorpus(
    size_t shard_id, std::shared_ptr<const IndexedCorpus> full_corpus) {
  if (shard_id >= backends_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(shard_id));
  }
  if (full_corpus == nullptr) {
    return Status::InvalidArgument("SwapShardCorpus requires a corpus");
  }
  return PublishToShard(
      shard_id, "router.shard_swap", [&](SelectionEngine* engine) -> Status {
        if (backends_.size() == 1) {
          return engine->SwapCorpus(std::move(full_corpus));
        }
        COMPARESETS_ASSIGN_OR_RETURN(
            auto shard_corpus,
            CorpusPartitioner::ExtractShard(*full_corpus, bounds_, shard_id));
        return engine->SwapCorpus(std::move(shard_corpus));
      });
}

Status ShardRouter::ApplyShardDelta(
    size_t shard_id, std::shared_ptr<const IndexedCorpus> snapshot,
    size_t reviews_added) {
  if (shard_id >= backends_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(shard_id));
  }
  if (snapshot == nullptr) {
    return Status::InvalidArgument("ApplyShardDelta requires a snapshot");
  }
  return PublishToShard(shard_id, "router.shard_delta",
                        [&](SelectionEngine* engine) {
                          return engine->ApplyCorpusDelta(std::move(snapshot),
                                                          reviews_added);
                        });
}

Status ShardRouter::SetShardState(size_t shard_id, ShardState state) {
  if (shard_id >= backends_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(shard_id));
  }
  if (state == ShardState::kSwapping) {
    return Status::InvalidArgument(
        "kSwapping is owned by SwapShardCorpus; set kServing or kDown");
  }
  std::lock_guard<std::mutex> lock(admin_mutex_);
  states_[shard_id].store(static_cast<int>(state), std::memory_order_release);
  metrics_.counter("router.shard_state_changes").Increment();
  return Status::OK();
}

RequestPipeline* ShardRouter::pipeline() const {
  SelectionEngine* engine = backends_[0]->local_engine();
  return engine == nullptr ? nullptr : engine->pipeline();
}

std::vector<ShardStatus> ShardRouter::ShardStatuses() const {
  std::vector<ShardStatus> statuses;
  statuses.reserve(backends_.size());
  for (size_t s = 0; s < backends_.size(); ++s) {
    ShardStatus status;
    status.shard_id = s;
    status.state = StateOf(s);
    status.range = RangeOf(s);
    Result<ShardHealth> health = backends_[s]->Probe();
    if (health.ok()) {
      status.corpus_epoch = health.value().corpus_epoch;
      status.num_instances = health.value().num_instances;
      status.num_products = health.value().num_products;
    }
    statuses.push_back(std::move(status));
  }
  return statuses;
}

std::vector<Result<ShardHealth>> ShardRouter::ProbeAll() const {
  std::vector<Result<ShardHealth>> health;
  health.reserve(backends_.size());
  for (const auto& backend : backends_) {
    health.push_back(backend->Probe());
  }
  return health;
}

Status ShardRouter::WaitReady(double timeout_seconds) const {
  Timer timer;
  for (size_t s = 0; s < backends_.size(); ++s) {
    for (;;) {
      Result<ShardHealth> health = backends_[s]->Probe();
      if (health.ok() && health.value().ready) break;
      if (timer.ElapsedSeconds() >= timeout_seconds) {
        Status last = health.ok()
                          ? Status::Unavailable("shard not ready, state=" +
                                                health.value().state)
                          : health.status();
        return Status::Timeout("shard " + std::to_string(s) + " (" +
                               backends_[s]->name() + ") not ready: " +
                               last.ToString());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return Status::OK();
}

namespace {

/// Sums engine snapshots instrument-by-instrument: counters and gauges
/// add; histograms merge (count/sum/buckets add, min/max combine).
MetricsSnapshot RollupSnapshots(const std::vector<MetricsSnapshot>& shards) {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  for (const MetricsSnapshot& shard : shards) {
    for (const auto& [name, value] : shard.counters) counters[name] += value;
    for (const auto& [name, value] : shard.gauges) gauges[name] += value;
    for (const auto& [name, h] : shard.histograms) {
      HistogramSnapshot& merged = histograms[name];
      if (merged.count == 0) {
        merged = h;
        continue;
      }
      if (h.count == 0) continue;
      merged.min = std::min(merged.min, h.min);
      merged.max = std::max(merged.max, h.max);
      merged.count += h.count;
      merged.sum += h.sum;
      merged.buckets.resize(std::max(merged.buckets.size(), h.buckets.size()));
      for (size_t b = 0; b < h.buckets.size(); ++b) {
        merged.buckets[b] += h.buckets[b];
      }
    }
  }
  MetricsSnapshot rollup;
  for (auto& [name, value] : counters) rollup.counters.emplace_back(name, value);
  for (auto& [name, value] : gauges) rollup.gauges.emplace_back(name, value);
  for (auto& [name, h] : histograms) {
    h.mean = h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
    rollup.histograms.emplace_back(name, h);
  }
  return rollup;
}

/// Renders a snapshot in MetricsRegistry::Dump's line format.
std::string DumpSnapshot(const MetricsSnapshot& snapshot) {
  std::string out;
  char line[256];
  for (const auto& [name, value] : snapshot.counters) {
    std::snprintf(line, sizeof(line), "counter %s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += line;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::snprintf(line, sizeof(line), "gauge %s %.6g\n", name.c_str(), value);
    out += line;
  }
  for (const auto& [name, h] : snapshot.histograms) {
    std::snprintf(line, sizeof(line),
                  "histogram %s count=%llu mean=%.6gs min=%.6gs max=%.6gs\n",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  h.mean, h.min, h.max);
    out += line;
  }
  return out;
}

}  // namespace

std::string ShardRouter::DumpMetrics() const {
  std::vector<size_t> local_shards;
  std::vector<MetricsSnapshot> snapshots;
  for (size_t s = 0; s < backends_.size(); ++s) {
    if (SelectionEngine* engine = backends_[s]->local_engine()) {
      local_shards.push_back(s);
      snapshots.push_back(engine->SnapshotMetrics());
    }
  }
  // Router counters first, then the cross-shard rollup in the same
  // format a single engine dumps — so consumers of the unsharded dump
  // (scripts grepping "counter engine.requests") read the same lines.
  std::string out = metrics_.Dump();
  out += DumpSnapshot(RollupSnapshots(snapshots));
  if (backends_.size() > 1) {
    for (size_t k = 0; k < local_shards.size(); ++k) {
      size_t s = local_shards[k];
      char header[128];
      std::snprintf(header, sizeof(header),
                    "--- shard %zu %s state=%s epoch=%llu ---\n", s,
                    RangeOf(s).ToString().c_str(), ShardStateName(StateOf(s)),
                    static_cast<unsigned long long>(
                        backends_[s]->local_engine()->corpus_epoch()));
      out += header;
      out += DumpSnapshot(snapshots[k]);
    }
  }
  return out;
}

std::string ShardRouter::RenderPrometheus() const {
  std::vector<std::pair<std::string, MetricsSnapshot>> labeled;
  labeled.reserve(backends_.size() + 1);
  labeled.emplace_back(std::string(), metrics_.Snapshot());
  for (size_t s = 0; s < backends_.size(); ++s) {
    if (SelectionEngine* engine = backends_[s]->local_engine()) {
      labeled.emplace_back("shard=\"" + std::to_string(s) + "\"",
                           engine->SnapshotMetrics());
    }
  }
  return MetricsRegistry::RenderPrometheus(labeled);
}

std::string ShardRouter::DumpTraces() const {
  std::string out;
  for (const auto& backend : backends_) {
    if (SelectionEngine* engine = backend->local_engine()) {
      out += engine->DumpTraces();
    }
  }
  return out;
}

std::vector<RequestTrace> ShardRouter::Traces() const {
  std::vector<RequestTrace> traces;
  for (const auto& backend : backends_) {
    SelectionEngine* engine = backend->local_engine();
    if (engine == nullptr) continue;
    std::vector<RequestTrace> shard_traces = engine->Traces();
    traces.insert(traces.end(),
                  std::make_move_iterator(shard_traces.begin()),
                  std::make_move_iterator(shard_traces.end()));
  }
  return traces;
}

}  // namespace comparesets
