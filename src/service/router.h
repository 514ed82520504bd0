// ShardRouter: the scatter/gather front of a sharded serving deployment.
//
// One router fronts N shards, each serving a contiguous target-id range
// of the catalog (CorpusPartitioner), through the ShardBackend seam
// (service/backend.h): in-process engines (CreateLocalBackends) or
// shard_server processes over RPC (net/client.h) — the routing code is
// the same either way. A `Select` routes to the shard owning its
// target; a `SelectBatch` splits the batch by shard, fans the
// sub-batches out on the router's own ThreadPool, and reassembles
// responses in request order. Output is bit-identical to a single
// SelectionEngine over the unpartitioned corpus — shards hold exact
// slices of the same instance enumeration, so routing is pure
// dispatch, never approximation.
//
// Operational surface:
//   * Shard state — a shard marked down (ops drill, fault isolation)
//     refuses ITS range with kUnavailable; other ranges are untouched.
//   * Fault injection — seams at the route decision (FaultSite::kRoute)
//     and at each per-shard gather task (FaultSite::kGather).
//   * router.* counters, for every transport.
// Local shards only (a remote shard's lifecycle and registry belong to
// its own process; these answer kNotImplemented or skip it):
//   * Per-shard SwapCorpus / delta apply — one shard swaps while every
//     other shard keeps its snapshot, caches, and memo (shard-local
//     epochs are the whole point). During a swap the shard's range
//     answers kUnavailable; the rest keep serving.
//   * Shared admission — local shard engines share one RequestPipeline,
//     so max_in_flight is a router-wide budget.
//   * Metrics rollup and traces — a merged Prometheus exposition with
//     `shard` labels, and a text dump aggregating engine counters.
//
// Threading (docs/execution-model.md): the router's fan-out is a layer
// ABOVE the engines and owns its own pool, one lane per shard
// sub-batch. Each shard engine still applies the engine nesting rule to
// its sub-batch on its own pool, so the two layers never re-enter the
// same pool.

#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/backend.h"
#include "service/partitioner.h"

namespace comparesets {

struct RouterOptions {
  /// Configuration applied to every shard engine when the router builds
  /// local shards from a corpus. `shard_id` and `pipeline` are
  /// overwritten (each engine gets its stable shard id and the shared
  /// admission pipeline). Unused by the backend-set Create.
  EngineOptions engine;
  /// Lanes for the scatter/gather fan-out over shards (0 = hardware
  /// concurrency). With <= 1, sub-batches run serially in shard order.
  size_t router_threads = 0;
  /// Deterministic fault injection at the router's seams (kRoute /
  /// kGather); nullptr = no faults. Independent of the engine-level
  /// injector in `engine.fault_injector`.
  std::shared_ptr<FaultInjector> fault_injector;
};

/// Serving state of one shard, surfaced per-range by the router.
enum class ShardState {
  kServing = 0,  ///< Normal operation.
  kSwapping,     ///< Mid-SwapShardCorpus; its range answers kUnavailable.
  kDown,         ///< Marked down; its range answers kUnavailable.
};

/// Stable lowercase name ("serving", "swapping", "down").
const char* ShardStateName(ShardState state);

/// Point-in-time status of one shard: the router's state for it plus
/// what its probe reports.
struct ShardStatus {
  size_t shard_id = 0;
  ShardState state = ShardState::kServing;
  ShardKeyRange range;
  uint64_t corpus_epoch = 0;
  size_t num_instances = 0;
  size_t num_products = 0;
};

class ShardRouter {
 public:
  /// Partitions `corpus` into `num_shards` target-id ranges and serves
  /// each from a local engine (CreateLocalBackends). num_shards == 1
  /// serves the input snapshot unpartitioned — byte-for-byte today's
  /// single engine.
  static Result<std::unique_ptr<ShardRouter>> Create(
      std::shared_ptr<const IndexedCorpus> corpus, size_t num_shards,
      RouterOptions options = {});

  /// Fronts the given shards. `bounds` are the partition lower bounds
  /// (bounds[0] == "", sorted, one per backend); `backends` the shards
  /// in range order.
  static Result<std::unique_ptr<ShardRouter>> Create(
      std::vector<std::string> bounds,
      std::vector<std::unique_ptr<ShardBackend>> backends,
      RouterOptions options = {});

  size_t num_shards() const { return backends_.size(); }

  /// Routes to the shard owning request.target_id and delegates. A
  /// down/swapping shard fails ITS requests with kUnavailable naming
  /// the affected range; other ranges are unaffected.
  Result<SelectResponse> Select(const SelectRequest& request) const;

  /// Scatter/gather: splits the batch by shard, runs each sub-batch as
  /// ONE backend SelectBatch (one frame over RPC; concurrently across
  /// shards when the router pool has lanes), reassembles in request
  /// order. Requests whose shard is unavailable fail individually; the
  /// rest proceed. Each request's deadline spans the whole gather —
  /// time lost before its shard dispatches counts against it.
  std::vector<Result<SelectResponse>> SelectBatch(
      const std::vector<SelectRequest>& requests) const;

  /// Re-extracts shard `shard_id`'s slice of `full_corpus` (under the
  /// partition bounds fixed at Create) and swaps it into that shard's
  /// engine. Only that shard's epoch moves; every other shard keeps
  /// its snapshot and warm caches. While the swap runs the shard is
  /// kSwapping (its range answers kUnavailable); on success it returns
  /// to kServing (also reviving a kDown shard), on failure the prior
  /// state and snapshot are kept. kNotImplemented for a remote shard.
  Status SwapShardCorpus(size_t shard_id,
                         std::shared_ptr<const IndexedCorpus> full_corpus);

  /// Publishes an incrementally built shard snapshot from the streaming
  /// ingestion path (service/ingest). Unlike SwapShardCorpus the
  /// snapshot arrives already extracted — the DeltaCorpusBuilder built
  /// it under the SAME partition bounds fixed at Create, through the
  /// same ExtractShardFromParts seam the swap path uses — so this is
  /// pure publication: the same kSwapping window, the same shard-local
  /// epoch bump, every other shard's caches stay warm. `reviews_added`
  /// flows into the engine's cumulative ingest counter (RequestTrace's
  /// ingest_records). kNotImplemented for a remote shard.
  Status ApplyShardDelta(size_t shard_id,
                         std::shared_ptr<const IndexedCorpus> snapshot,
                         size_t reviews_added);

  /// Marks a shard kDown / back to kServing (ops drills, tests).
  Status SetShardState(size_t shard_id, ShardState state);

  /// The shard whose range contains `target_id` (total: every id maps
  /// to exactly one shard, known or not).
  size_t ShardForTarget(const std::string& target_id) const;

  /// A local shard's engine (tests, status surfaces). The shard must be
  /// local (see mutable_shard_engine for the checked form).
  const SelectionEngine& shard_engine(size_t shard_id) const {
    return *backends_[shard_id]->local_engine();
  }

  /// Mutable engine access for runtime policy levers — the
  /// SloController flips each engine's quality floor through this.
  /// nullptr for a remote shard.
  SelectionEngine* mutable_shard_engine(size_t shard_id) {
    return backends_[shard_id]->local_engine();
  }

  /// The admission pipeline shared by the local shard engines (the
  /// SloController's batch-budget lever); nullptr over remote shards.
  RequestPipeline* pipeline() const;

  /// Partition lower bounds fixed at Create (bounds[0] == "").
  const std::vector<std::string>& bounds() const { return bounds_; }

  /// Router state of every shard plus what its probe reports (counts
  /// stay zero for a shard whose probe fails).
  std::vector<ShardStatus> ShardStatuses() const;

  /// Probes every backend once, in shard order.
  std::vector<Result<ShardHealth>> ProbeAll() const;

  /// Blocks until every backend reports ready or `timeout_seconds`
  /// elapses (kTimeout naming the laggard shard).
  Status WaitReady(double timeout_seconds) const;

  /// Text dump: router counters, then local engine instruments
  /// aggregated across shards (same line format as one engine's dump),
  /// then — on a multi-shard router — one section per local shard.
  std::string DumpMetrics() const;

  /// Merged Prometheus exposition: router-level metrics unlabeled,
  /// every local shard engine's metrics labeled shard="<id>", one
  /// # TYPE header per family.
  std::string RenderPrometheus() const;

  /// All local shards' trace rings as JSONL, shard by shard, oldest
  /// first within each shard. Lines carry shard_id + corpus_epoch.
  std::string DumpTraces() const;

  /// All local shards' retained traces, in the same order as DumpTraces.
  std::vector<RequestTrace> Traces() const;

 private:
  ShardRouter(std::vector<std::string> bounds,
              std::vector<std::unique_ptr<ShardBackend>> backends,
              RouterOptions options);

  /// kUnavailable for a non-serving shard, naming its range; OK else.
  Status CheckRoutable(size_t shard) const;

  /// The half-open range shard `shard_id` owns, from bounds_.
  ShardKeyRange RangeOf(size_t shard_id) const;

  ShardState StateOf(size_t shard_id) const;

  /// Runs one admin operation on a local shard's engine inside the
  /// kSwapping window: on failure the previous state is restored, on
  /// success the shard serves again. Counts `<counter>s` or
  /// `<counter>_failures` (router.shard_swaps, router.shard_deltas,
  /// and their _failures twins). kNotImplemented for a remote shard.
  Status PublishToShard(size_t shard_id, const std::string& counter,
                        const std::function<Status(SelectionEngine*)>& op);

  RouterOptions options_;
  std::vector<std::string> bounds_;
  std::vector<std::unique_ptr<ShardBackend>> backends_;
  /// Per-shard ShardState, atomics so the hot path reads lock-free.
  std::unique_ptr<std::atomic<int>[]> states_;
  /// Serializes swaps and state changes (readers never take it).
  mutable std::mutex admin_mutex_;
  mutable MetricsRegistry metrics_;
  mutable ThreadPool pool_;
};

}  // namespace comparesets
