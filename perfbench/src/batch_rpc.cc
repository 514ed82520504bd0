// batch_rpc: one caller sends SelectBatch chunks of 32 through
// RpcShardRouter (2 lanes) to two in-process ShardServers over unix
// sockets. Each server fronts a LocalShardBackend engine with alignment
// off — the selection-only setting of the in-repo service benches —
// and the two engine pools total nproc. Crs, CompaReSetS and
// CompaReSetS+ come in thirds with m in 3..7 and no request repeats,
// so ROUGE does nothing here: the solver stack, batch fan-out, router
// scatter/gather, wire codec and sockets do all the work.

#include <algorithm>
#include <mutex>

#include "layers.h"
#include "net/client.h"
#include "net/messages.h"
#include "net/server.h"
#include "service/backend.h"
#include "service/router.h"
#include "service/rpc_router.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace comparesets;

namespace {

constexpr size_t kShards = 2;
constexpr size_t kBatchSize = 32;
/// Leading batches of the seeded order replayed by the oracle.
constexpr size_t kOracleBatches = 2;
/// Untimed batches taken from the tail of the order before timing.
constexpr size_t kWarmupBatches = 3;
const char* const kSelectors[] = {"Crs", "CompaReSetS", "CompaReSetS+"};

/// Records each sub-batch the router hands a shard as a
/// "backend.select_batch" span under the caller's current batch span,
/// and keeps the last call's duration for the router-overhead split.
class TimedBackend : public ShardBackend {
 public:
  TimedBackend(std::unique_ptr<ShardBackend> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  Result<SelectResponse> Select(const SelectRequest& request) override {
    return inner_->Select(request);
  }
  std::vector<Result<SelectResponse>> SelectBatch(
      const std::vector<SelectRequest>& requests) override {
    uint64_t request_id = 0;
    uint64_t parent = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      request_id = request_id_;
      parent = parent_;
    }
    double t0 = NowSeconds();
    auto results = inner_->SelectBatch(requests);
    double t1 = NowSeconds();
    tracer_->Record("backend.select_batch", request_id, parent, t0, t1);
    std::lock_guard<std::mutex> lock(mutex_);
    last_seconds_ = t1 - t0;
    return results;
  }
  Result<ShardHealth> Probe() override { return inner_->Probe(); }
  std::string name() const override { return inner_->name(); }

  /// Names the batch span the next sub-batch belongs to and clears the
  /// last duration.
  void BeginBatch(uint64_t request_id, uint64_t parent) {
    std::lock_guard<std::mutex> lock(mutex_);
    request_id_ = request_id;
    parent_ = parent;
    last_seconds_ = 0.0;
  }
  double last_seconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return last_seconds_;
  }

 private:
  std::unique_ptr<ShardBackend> inner_;
  Tracer* tracer_;
  mutable std::mutex mutex_;
  uint64_t request_id_ = 0;
  uint64_t parent_ = 0;
  double last_seconds_ = 0.0;
};

struct RpcStack {
  SetupTimes setup;
  std::shared_ptr<const IndexedCorpus> corpus;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<RpcShardBackend*> clients;  ///< Owned by the router.
  std::vector<TimedBackend*> timed;       ///< Owned by the router.
  /// Declared last: destroyed first, closing its connections before
  /// the servers shut down.
  std::unique_ptr<RpcShardRouter> router;
};

EngineOptions ShardEngineOptions() {
  EngineOptions options;
  options.threads = std::max<size_t>(1, Nproc() / kShards);
  options.measure_alignment = false;
  return options;
}

Result<std::unique_ptr<RpcStack>> BuildStack(uint64_t seed,
                                             const std::string& run_dir,
                                             int stack_id, Tracer* tracer) {
  auto stack = std::make_unique<RpcStack>();
  double t0 = NowSeconds();
  COMPARESETS_ASSIGN_OR_RETURN(Corpus corpus, GenerateCatalog(seed));
  double t1 = NowSeconds();
  COMPARESETS_ASSIGN_OR_RETURN(stack->corpus,
                               IndexedCorpus::Build(std::move(corpus)));
  double t2 = NowSeconds();
  COMPARESETS_ASSIGN_OR_RETURN(
      LocalBackendSet local,
      CreateLocalBackends(stack->corpus, kShards, ShardEngineOptions()));
  std::vector<std::unique_ptr<ShardBackend>> backends;
  for (size_t s = 0; s < local.backends.size(); ++s) {
    ShardServerOptions server_options;
    server_options.address = "unix:" + run_dir + "/shard" +
                             std::to_string(stack_id) + "-" +
                             std::to_string(s) + ".sock";
    COMPARESETS_ASSIGN_OR_RETURN(
        std::unique_ptr<ShardServer> server,
        ShardServer::Start(std::move(local.backends[s]), server_options));
    RpcBackendOptions client_options;
    client_options.replicas = {server->bound_address()};
    client_options.shard_id = s;
    stack->servers.push_back(std::move(server));
    COMPARESETS_ASSIGN_OR_RETURN(std::unique_ptr<RpcShardBackend> client,
                                 RpcShardBackend::Create(client_options));
    stack->clients.push_back(client.get());
    auto timed = std::make_unique<TimedBackend>(std::move(client), tracer);
    stack->timed.push_back(timed.get());
    backends.push_back(std::move(timed));
  }
  RpcRouterOptions router_options;
  router_options.router_threads = kShards;
  COMPARESETS_ASSIGN_OR_RETURN(
      stack->router, RpcShardRouter::Create(local.bounds, std::move(backends),
                                            router_options));
  COMPARESETS_RETURN_NOT_OK(stack->router->WaitReady(10.0));
  stack->setup = {t1 - t0, t2 - t1, NowSeconds() - t2};
  return stack;
}

struct Triple {
  size_t instance;
  size_t selector;
  size_t m;
};

std::vector<SelectRequest> MakeBatch(const IndexedCorpus& corpus,
                                     const std::vector<Triple>& triples,
                                     size_t batch) {
  std::vector<SelectRequest> requests;
  for (size_t k = batch * kBatchSize; k < (batch + 1) * kBatchSize; ++k) {
    SelectRequest request;
    request.target_id = corpus.instances()[triples[k].instance].target().id;
    request.selector = kSelectors[triples[k].selector];
    request.options.m = triples[k].m;
    requests.push_back(std::move(request));
  }
  return requests;
}

struct NetCounters {
  uint64_t frames = 0;
  uint64_t connections = 0;
  uint64_t retries = 0;
};

NetCounters ReadCounters(const RpcStack& stack) {
  NetCounters c;
  for (const auto& server : stack.servers) c.frames += server->frames_served();
  for (const RpcShardBackend* client : stack.clients) {
    c.connections += client->connections_opened();
    c.retries += client->transport_retries();
  }
  return c;
}

}  // namespace

Status RunBatchRpc(const RunArgs& args, const PassOptions& pass,
                   Tracer* tracer, RunReport* report) {
  std::vector<SetupTimes> setups;
  COMPARESETS_ASSIGN_OR_RETURN(
      std::unique_ptr<RpcStack> stack,
      TimedSetup<RpcStack>(
          pass.setup_reps,
          [&] {
            return BuildStack(args.seed, args.run_dir, NextStackId(), tracer);
          },
          &setups));
  ReportSetup(setups, report);
  const IndexedCorpus& corpus = *stack->corpus;
  const RpcShardRouter& router = *stack->router;

  std::vector<Triple> triples;
  for (size_t i = 0; i < corpus.num_instances(); ++i) {
    for (size_t s = 0; s < 3; ++s) {
      for (size_t m = kMinM; m <= kMaxM; ++m) triples.push_back({i, s, m});
    }
  }
  Rng rng(args.seed, 23);
  rng.Shuffle(&triples);
  size_t num_batches = triples.size() / kBatchSize;
  report->Info("instances", std::to_string(corpus.num_instances()));
  report->Info("batch_size", std::to_string(kBatchSize));
  report->Info("shard_engine_threads",
               std::to_string(ShardEngineOptions().threads));

  for (size_t b = 0; b < kWarmupBatches; ++b) {
    (void)router.SelectBatch(MakeBatch(corpus, triples, num_batches - 1 - b));
  }

  NetCounters before = ReadCounters(*stack);
  OpCounts batches;
  OpCounts requests;
  std::vector<double> latencies;
  std::vector<std::vector<Result<SelectResponse>>> sample;
  LayerStats layers;
  std::vector<double> overheads;
  std::vector<double> skews;
  double codec_seconds = 0.0;
  double wire_bytes = 0.0;
  CpuTicks ticks_before = ReadCpuTicks();
  double start = NowSeconds();
  double end = start + pass.seconds;
  WindowCounter windows(start, pass.seconds);
  size_t sent = 0;
  for (size_t b = 0; b + kWarmupBatches < num_batches; ++b) {
    if (b >= kOracleBatches && NowSeconds() >= end) break;
    std::vector<SelectRequest> batch = MakeBatch(corpus, triples, b);
    uint64_t request_id = tracer->NewRequest();
    ScopedSpan root(tracer, "client.batch", request_id, 0);
    uint64_t router_span = tracer->ReserveId();
    for (TimedBackend* timed : stack->timed) {
      timed->BeginBatch(request_id, router_span);
    }
    double t0 = NowSeconds();
    std::vector<Result<SelectResponse>> results = router.SelectBatch(batch);
    double t1 = NowSeconds();
    tracer->RecordWithId(router_span, "router.select_batch", request_id,
                         root.id(), t0, t1);
    latencies.push_back(t1 - t0);
    ++sent;
    Status batch_status = Status::OK();
    for (const auto& result : results) {
      requests.Record(result.status());
      if (result.ok()) windows.Add(t1);
      if (!result.ok() && batch_status.ok()) batch_status = result.status();
    }
    batches.Record(batch_status);
    if (b < kOracleBatches) sample.push_back(results);
    if (!tracer->enabled()) continue;

    double slowest = 0.0;
    for (const TimedBackend* timed : stack->timed) {
      slowest = std::max(slowest, timed->last_seconds());
    }
    overheads.push_back((t1 - t0) - slowest);
    std::vector<double> per_shard(kShards, 0.0);
    for (const SelectRequest& request : batch) {
      per_shard[router.ShardForTarget(request.target_id)] += 1.0;
    }
    skews.push_back(*std::max_element(per_shard.begin(), per_shard.end()) /
                    Mean(per_shard));
    {
      ScopedSpan codec(tracer, "net.codec", request_id, root.id());
      double c0 = NowSeconds();
      std::string request_bytes = EncodeBatchRequest(batch);
      auto decoded_requests = DecodeBatchRequest(request_bytes);
      std::string response_bytes = EncodeBatchResponse(results);
      auto decoded_responses = DecodeBatchResponse(response_bytes);
      codec_seconds += NowSeconds() - c0;
      wire_bytes += static_cast<double>(request_bytes.size() +
                                        response_bytes.size());
      if (!decoded_requests.ok() || !decoded_responses.ok()) {
        report->Fail("codec round trip failed");
      }
    }
    for (size_t k = 0; k < batch.size(); ++k) {
      if (!results[k].ok()) continue;
      layers.Observe(results[k].value());
      Status probed = ProbeLayers(corpus, batch[k], results[k].value(), false,
                                  tracer, request_id, root.id());
      if (!probed.ok()) report->Fail(probed.ToString());
    }
  }
  double elapsed = NowSeconds() - start;
  ReportHostLoad(ticks_before, ReadCpuTicks(), report);
  NetCounters after = ReadCounters(*stack);

  report->ops["batch"] = batches;
  report->Info("requests_attempted", std::to_string(requests.attempted));
  report->Info("requests_failed",
               std::to_string(requests.failed + requests.refused));
  ReportThroughput(windows, requests.succeeded, elapsed, report);
  ReportLatency(latencies, report);

  // Oracle: the leading batches replayed through a local ShardRouter
  // over the same partition must match the RPC answers bit for bit.
  RouterOptions local_options;
  local_options.engine = ShardEngineOptions();
  local_options.router_threads = kShards;
  COMPARESETS_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardRouter> local,
      ShardRouter::Create(stack->corpus, kShards, local_options));
  if (local->bounds() != router.bounds()) {
    report->Fail("oracle: local router partitions differently");
  }
  uint64_t digest = 1469598103934665603ULL;
  for (size_t b = 0; b < sample.size(); ++b) {
    auto want = local->SelectBatch(MakeBatch(corpus, triples, b));
    for (size_t k = 0; k < want.size(); ++k) {
      const auto& got = sample[b][k];
      if (got.ok() != want[k].ok()) {
        report->Fail("oracle: status differs for batch " + std::to_string(b));
        continue;
      }
      if (!got.ok()) continue;
      std::string diff = CompareAnswers(got.value(), want[k].value());
      if (!diff.empty()) report->Fail("oracle: " + diff);
      digest = DigestResponse(want[k].value(), digest);
    }
  }
  if (sample.size() != kOracleBatches) {
    report->Fail("oracle: leading batches were not all answered");
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  report->Info("payload_digest", hex);
  report->Info("oracle_checked", std::to_string(kOracleBatches * kBatchSize));

  if (tracer->enabled()) {
    layers.Report(*tracer, report);
    double n = static_cast<double>(std::max<uint64_t>(requests.attempted, 1));
    report->Set("router.overhead_ms_per_batch", 1e3 * Mean(overheads), "ms");
    report->Set("router.shard_skew", Mean(skews), "ratio");
    report->Set("net.codec_us_per_req", 1e6 * codec_seconds / n, "us");
    report->Set("net.bytes_per_req", wire_bytes / n, "bytes");
    report->Set("net.frames_served",
                static_cast<double>(after.frames - before.frames), "count");
    report->Set("net.connections_opened",
                static_cast<double>(after.connections - before.connections),
                "count");
    report->Set("net.transport_retries",
                static_cast<double>(after.retries - before.retries), "count");
  }
  report->Info("batches_sent", std::to_string(sent));
  return Status::OK();
}

}  // namespace perfbench
