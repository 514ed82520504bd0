// select_align: four closed-loop callers send lone aligned CompaReSetS+
// Selects to a 1-shard local router configured as `serve` configures
// it (alignment on, memo 1024, vector cache 256, pool = nproc). Every
// (target, m) pair is sent at most once, in seeded order, so the memo
// never hits and the working set dwarfs the vector cache: ROUGE
// alignment, cold prepare, solve and admission all run on every call.

#include <algorithm>
#include <atomic>
#include <optional>
#include <tuple>

#include "layers.h"
#include "service/router.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace comparesets;

namespace {

constexpr size_t kCallers = 4;
/// Leading pairs of the seeded order re-solved by the oracle. The
/// callers always send them first, so every run answers them.
constexpr size_t kOracleSample = 6;
/// Untimed requests taken from the tail of the order before timing.
constexpr size_t kWarmupRequests = 8;
/// Size strata of the request order (see StratifiedPairs).
constexpr size_t kStrata = 50;

struct AlignStack {
  SetupTimes setup;
  std::shared_ptr<const IndexedCorpus> corpus;
  std::unique_ptr<ShardRouter> router;
};

Result<std::unique_ptr<AlignStack>> BuildStack(uint64_t seed) {
  auto stack = std::make_unique<AlignStack>();
  double t0 = NowSeconds();
  COMPARESETS_ASSIGN_OR_RETURN(Corpus corpus, GenerateCatalog(seed));
  double t1 = NowSeconds();
  COMPARESETS_ASSIGN_OR_RETURN(stack->corpus,
                               IndexedCorpus::Build(std::move(corpus)));
  double t2 = NowSeconds();
  RouterOptions options;
  options.engine.threads = Nproc();
  options.engine.measure_alignment = true;
  options.engine.cache_capacity = 256;
  options.engine.result_capacity = 1024;
  options.router_threads = Nproc();
  COMPARESETS_ASSIGN_OR_RETURN(stack->router,
                               ShardRouter::Create(stack->corpus, 1, options));
  stack->setup = {t1 - t0, t2 - t1, NowSeconds() - t2};
  return stack;
}

/// Every (instance, m) pair once, in a seeded order whose every prefix
/// is a balanced sample of request cost. Pairs are sorted by a cost
/// proxy — the reviews a response can select (item count x m), then the
/// reviews its solve reads (total reviews x m) — and cut into kStrata
/// strata; each stratum is shuffled, and the order is a sequence of
/// blocks taking the next pair of every stratum, shuffled within the
/// block. A run answers a prefix of several hundred requests, so without
/// this its mean cost would swing with which pairs the seed put first.
std::vector<std::pair<size_t, size_t>> StratifiedPairs(
    const IndexedCorpus& corpus, uint64_t seed) {
  struct Keyed {
    size_t selectable;
    size_t read;
    std::pair<size_t, size_t> pair;
    bool operator<(const Keyed& other) const {
      return std::tie(selectable, read, pair) <
             std::tie(other.selectable, other.read, other.pair);
    }
  };
  std::vector<Keyed> keyed;
  for (size_t i = 0; i < corpus.num_instances(); ++i) {
    const ProblemInstance& instance = corpus.instances()[i];
    size_t reviews = 0;
    for (const Product* item : instance.items) reviews += item->reviews.size();
    for (size_t m = kMinM; m <= kMaxM; ++m) {
      keyed.push_back({instance.num_items() * m, reviews * m, {i, m}});
    }
  }
  std::sort(keyed.begin(), keyed.end());
  Rng rng(seed, 11);
  size_t strata = std::min(kStrata, keyed.size());
  std::vector<std::vector<std::pair<size_t, size_t>>> pools(strata);
  for (size_t s = 0; s < strata; ++s) {
    for (size_t k = s * keyed.size() / strata;
         k < (s + 1) * keyed.size() / strata; ++k) {
      pools[s].push_back(keyed[k].pair);
    }
    rng.Shuffle(&pools[s]);
  }
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t round = 0;; ++round) {
    std::vector<std::pair<size_t, size_t>> block;
    for (const auto& pool : pools) {
      if (round < pool.size()) block.push_back(pool[round]);
    }
    if (block.empty()) break;
    rng.Shuffle(&block);
    pairs.insert(pairs.end(), block.begin(), block.end());
  }
  return pairs;
}

SelectRequest MakeRequest(const IndexedCorpus& corpus,
                          std::pair<size_t, size_t> pair) {
  SelectRequest request;
  request.target_id = corpus.instances()[pair.first].target().id;
  request.selector = "CompaReSetS+";
  request.options.m = pair.second;
  return request;
}

}  // namespace

Status RunSelectAlign(const RunArgs& args, const PassOptions& pass,
                      Tracer* tracer, RunReport* report) {
  std::vector<SetupTimes> setups;
  COMPARESETS_ASSIGN_OR_RETURN(
      std::unique_ptr<AlignStack> stack,
      TimedSetup<AlignStack>(pass.setup_reps,
                             [&] { return BuildStack(args.seed); }, &setups));
  ReportSetup(setups, report);
  const IndexedCorpus& corpus = *stack->corpus;
  const ShardRouter& router = *stack->router;

  std::vector<std::pair<size_t, size_t>> pairs = StratifiedPairs(corpus, args.seed);
  report->Info("instances", std::to_string(corpus.num_instances()));
  report->Info("pairs", std::to_string(pairs.size()));
  report->Info("callers", std::to_string(kCallers));

  // Warm-up: code and allocator pages, from the tail of the order.
  RunThreads(kCallers, [&](size_t caller) {
    for (size_t k = caller; k < kWarmupRequests; k += kCallers) {
      (void)router.Select(MakeRequest(corpus, pairs[pairs.size() - 1 - k]));
    }
  });

  std::atomic<size_t> next{0};
  std::vector<std::vector<double>> latencies(kCallers);
  std::vector<OpCounts> counts(kCallers);
  std::vector<std::optional<SelectResponse>> sample(kOracleSample);
  std::vector<std::string> probe_errors(kCallers);
  LayerStats layers;
  CpuTicks ticks_before = ReadCpuTicks();
  double start = NowSeconds();
  double end = start + pass.seconds;
  std::vector<WindowCounter> windows(kCallers,
                                     WindowCounter(start, pass.seconds));
  RunThreads(kCallers, [&](size_t caller) {
    for (;;) {
      size_t index = next.fetch_add(1);
      if (index >= pairs.size() - kWarmupRequests) break;
      if (index >= kOracleSample && NowSeconds() >= end) break;
      SelectRequest request = MakeRequest(corpus, pairs[index]);
      uint64_t request_id = tracer->NewRequest();
      ScopedSpan root(tracer, "client.request", request_id, 0);
      double t0 = NowSeconds();
      Result<SelectResponse> response = router.Select(request);
      double t1 = NowSeconds();
      tracer->Record("router.select", request_id, root.id(), t0, t1);
      latencies[caller].push_back(t1 - t0);
      counts[caller].Record(response.status());
      if (!response.ok()) continue;
      windows[caller].Add(t1);
      if (index < kOracleSample) sample[index] = response.value();
      if (!tracer->enabled()) continue;
      layers.ObserveSelectSpan(t1 - t0);
      layers.Observe(response.value());
      Status probed = ProbeLayers(corpus, request, response.value(), true,
                                  tracer, request_id, root.id());
      if (!probed.ok() && probe_errors[caller].empty()) {
        probe_errors[caller] = probed.ToString();
      }
    }
  });
  double elapsed = NowSeconds() - start;
  ReportHostLoad(ticks_before, ReadCpuTicks(), report);

  std::vector<double> all;
  OpCounts reads;
  WindowCounter merged(start, pass.seconds);
  for (size_t c = 0; c < kCallers; ++c) {
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
    reads.Add(counts[c]);
    merged.Merge(windows[c]);
    if (!probe_errors[c].empty()) report->Fail(probe_errors[c]);
  }
  report->ops["read"] = reads;
  ReportThroughput(merged, reads.succeeded, elapsed, report);
  ReportLatency(all, report);

  // Oracle: the leading pairs re-solved on a serial reference engine
  // (one thread, memo off) must match bit for bit, alignment included.
  EngineOptions reference_options;
  reference_options.threads = 1;
  reference_options.result_capacity = 0;
  reference_options.measure_alignment = true;
  SelectionEngine reference(stack->corpus, reference_options);
  uint64_t digest = 1469598103934665603ULL;
  for (size_t k = 0; k < kOracleSample; ++k) {
    if (!sample[k].has_value()) {
      report->Fail("oracle: leading request " + std::to_string(k) +
                   " was not answered");
      continue;
    }
    auto want = reference.Select(MakeRequest(corpus, pairs[k]));
    if (!want.ok()) {
      report->Fail("oracle: reference failed: " + want.status().ToString());
      continue;
    }
    std::string diff = CompareAnswers(*sample[k], want.value());
    if (!diff.empty()) report->Fail("oracle: " + diff);
    digest = DigestResponse(want.value(), digest);
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  report->Info("payload_digest", hex);
  report->Info("oracle_checked", std::to_string(kOracleSample));
  if (tracer->enabled()) layers.Report(*tracer, report);
  return Status::OK();
}

}  // namespace perfbench
