// ShardBackend: the transport seam of the sharded serving layer.
//
// A ShardRouter (service/router.h) routes and scatter/gathers over N
// shards; this interface is the contract it needs from a shard and
// nothing more (answer one request, answer a sub-batch, report health),
// so the ONE router serves
//   * LocalShardBackend — an in-process SelectionEngine, and
//   * RpcShardBackend (net/client.h) — a pool of connections to a
//     shard_server process hosting that engine behind the wire
//     protocol.
// The transport oracle (tests/net_transport_oracle_test.cc) holds the
// two transports to byte-identical responses.
//
// Shard admin (corpus swap, delta apply), metrics rollup and traces
// need the engine in this process: a backend exposes it through
// local_engine(), and the router answers kNotImplemented for a shard
// that has none.
//
// Deadlines cross the seam as data (SelectRequest::deadline_seconds);
// CancelTokens do not — they are process-local (docs/execution-model.md
// covers how cancellation degrades to a deadline across a socket).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "service/engine.h"
#include "service/indexed_corpus.h"
#include "util/status.h"

namespace comparesets {

/// Health/readiness of one shard, as a probe answers it. Local backends
/// synthesize it from the engine; RPC backends decode it off the wire.
struct ShardHealth {
  bool ready = false;  ///< Engine built and serving.
  uint64_t shard_id = 0;
  std::string state;  ///< ShardStateName-style string ("serving").
  ShardKeyRange range;
  uint64_t corpus_epoch = 0;
  uint64_t num_instances = 0;
  uint64_t num_products = 0;
};

/// One shard, behind some transport. Implementations are thread-safe:
/// a router fans sub-batches out over backends concurrently.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Answers one request. Transport failures surface as kUnavailable /
  /// kTimeout / kIOError; application failures are the engine's own
  /// Status, carried with full code + message fidelity.
  virtual Result<SelectResponse> Select(const SelectRequest& request) = 0;

  /// Answers a whole sub-batch. Shipping the sub-batch as one unit (one
  /// frame, for RPC) preserves the engine's batch semantics — kernel
  /// windowing, in-order memo hits — exactly as the local router does.
  virtual std::vector<Result<SelectResponse>> SelectBatch(
      const std::vector<SelectRequest>& requests) = 0;

  /// Health/readiness probe. Cheap; routers poll it at startup
  /// (WaitReady) and ops surfaces print it.
  virtual Result<ShardHealth> Probe() = 0;

  /// Transport description for logs/errors ("local:0",
  /// "rpc:unix:/run/shard0.sock").
  virtual std::string name() const = 0;

  /// The shard's engine when it runs in this process; nullptr for a
  /// remote shard, whose lifecycle belongs to its own process.
  virtual SelectionEngine* local_engine() { return nullptr; }
};

/// In-process backend: wraps one shard's SelectionEngine.
class LocalShardBackend : public ShardBackend {
 public:
  /// `range` is the key range the engine's snapshot covers (from the
  /// partition bounds); surfaced by Probe.
  LocalShardBackend(std::shared_ptr<SelectionEngine> engine,
                    ShardKeyRange range);

  Result<SelectResponse> Select(const SelectRequest& request) override;
  std::vector<Result<SelectResponse>> SelectBatch(
      const std::vector<SelectRequest>& requests) override;
  Result<ShardHealth> Probe() override;
  std::string name() const override;
  SelectionEngine* local_engine() override { return engine_.get(); }

 private:
  std::shared_ptr<SelectionEngine> engine_;
  ShardKeyRange range_;
};

/// A partitioned set of local backends plus the bounds that route to
/// them — everything ShardRouter::Create needs for the in-process
/// transport.
struct LocalBackendSet {
  std::vector<std::string> bounds;
  std::vector<std::unique_ptr<ShardBackend>> backends;
};

/// Partitions `corpus` into `num_shards` ranges and builds one
/// LocalShardBackend per shard: ONE RequestPipeline shared across all
/// shard engines (admission stays a machine-wide budget), each engine
/// stamped with its stable shard id. num_shards == 1 serves the input
/// snapshot unpartitioned — byte-for-byte a single engine.
Result<LocalBackendSet> CreateLocalBackends(
    std::shared_ptr<const IndexedCorpus> corpus, size_t num_shards,
    EngineOptions engine_options);

}  // namespace comparesets
