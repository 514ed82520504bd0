// hot_ingest: reads beside writes on a 2-shard local router with
// `serve` defaults (alignment on). Three closed-loop readers send lone
// CompaReSetS+ Selects on Zipfian (s = 1.0) targets from a hot set, so
// after the untimed warm-up most reads are memo hits. One open-loop
// writer appends WalRecords on a fixed schedule and, each time 8 are
// pending, Syncs and runs IngestDriver::DrainOnce. Every drain clears
// the memo and vector cache of each shard it touches, so the next read
// of a hot target there pays a full solve plus ROUGE. This is the only
// workload with writes: a cache or snapshot change that helps one side
// and costs the other shows here.

#include <algorithm>
#include <cmath>
#include <thread>

#include "layers.h"
#include "service/ingest/delta.h"
#include "service/ingest/driver.h"
#include "service/ingest/wal.h"
#include "service/router.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace comparesets;

namespace {

constexpr size_t kShards = 2;
constexpr size_t kReaders = 3;
/// Targets the readers draw from, ranked by Zipf popularity.
constexpr size_t kHotTargets = 16;
constexpr double kZipfExponent = 1.0;
/// Records pending when the writer syncs and drains.
constexpr size_t kRecordsPerDrain = 8;
/// Open-loop append rate, records per second.
constexpr double kRecordsPerSecond = 1.0;
/// Hottest targets plus seeded others compared by the oracle.
constexpr size_t kOracleHot = 8;
constexpr size_t kOracleOther = 8;
/// How long a reader keeps retrying a read refused mid-publication.
constexpr double kUnavailableRetrySeconds = 1.0;

struct IngestStack {
  SetupTimes setup;
  Corpus base;  ///< The catalog before ingest (the oracle replays onto it).
  std::shared_ptr<const IndexedCorpus> corpus;
  std::unique_ptr<ShardRouter> router;
  WalWriter writer;
  /// Declared after the router it drains into: destroyed first.
  std::unique_ptr<IngestDriver> driver;
};

Result<std::unique_ptr<IngestStack>> BuildStack(uint64_t seed,
                                                const std::string& run_dir,
                                                int stack_id) {
  auto stack = std::make_unique<IngestStack>();
  double t0 = NowSeconds();
  COMPARESETS_ASSIGN_OR_RETURN(Corpus corpus, GenerateCatalog(seed));
  double generate_s = NowSeconds() - t0;
  stack->base = corpus;  // bench-side copy, not timed
  double t1 = NowSeconds();
  Corpus driver_base = corpus;  // `serve --ingest_log` takes this copy too
  COMPARESETS_ASSIGN_OR_RETURN(stack->corpus,
                               IndexedCorpus::Build(std::move(corpus)));
  double t2 = NowSeconds();
  RouterOptions options;
  options.engine.threads = Nproc();
  options.engine.measure_alignment = true;
  options.engine.cache_capacity = 256;
  options.engine.result_capacity = 1024;
  options.router_threads = Nproc();
  COMPARESETS_ASSIGN_OR_RETURN(
      stack->router, ShardRouter::Create(stack->corpus, kShards, options));
  std::string wal_path =
      run_dir + "/ingest-" + std::to_string(stack_id) + ".wal";
  WalWriterOptions wal_options;
  wal_options.fsync_every = kRecordsPerDrain;
  COMPARESETS_ASSIGN_OR_RETURN(stack->writer,
                               WalWriter::Open(wal_path, wal_options));
  IngestDriverOptions driver_options;
  driver_options.wal_path = wal_path;
  driver_options.batch_size = kRecordsPerDrain;
  COMPARESETS_ASSIGN_OR_RETURN(
      stack->driver, IngestDriver::Create(std::move(driver_base),
                                          stack->router.get(), driver_options));
  stack->setup = {generate_s, t2 - t1, NowSeconds() - t2};
  return stack;
}

/// P(rank i) ∝ 1 / (i + 1)^s over [0, n), by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Draw(Rng* rng) const {
    double u = rng->UniformDouble();
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(rank, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// The streamed records: a donor review's text and opinions re-homed on
/// a uniformly drawn product under a fresh review id.
std::vector<WalRecord> MakeRecords(const Corpus& base, uint64_t seed,
                                   size_t count) {
  Rng rng(seed, 31);
  std::vector<WalRecord> records;
  const auto& products = base.products();
  while (records.size() < count) {
    const Product& product =
        products[rng.UniformU32(static_cast<uint32_t>(products.size()))];
    const Product& donor =
        products[rng.UniformU32(static_cast<uint32_t>(products.size()))];
    if (donor.reviews.empty()) continue;
    Review review = donor.reviews[rng.UniformU32(
        static_cast<uint32_t>(donor.reviews.size()))];
    size_t k = records.size();
    review.id = "perfbench-r" + std::to_string(k);
    review.reviewer_id = "perfbench-u" + std::to_string(k % 16);
    records.push_back(MakeWalRecord(product.id, review, base.catalog()));
  }
  return records;
}

/// The hot set. Candidates are the instances with the median item
/// count, since a memo hit copies one entry per item and the top Zipf
/// rank takes a quarter of the reads. Each shard's candidates are sorted
/// by total review count and cut into equal strata with one seeded pick
/// per stratum, so every seed's hot set carries about the same solve +
/// ROUGE work per refill. Zipf ranks alternate between the shards' picks
/// (each list in seeded order), so every seed puts the same share of
/// reads on each shard's memo.
std::vector<size_t> PickHotSet(const IndexedCorpus& corpus,
                               const ShardRouter& router, uint64_t seed) {
  std::vector<size_t> item_counts;
  for (const ProblemInstance& instance : corpus.instances()) {
    item_counts.push_back(instance.num_items());
  }
  std::nth_element(item_counts.begin(),
                   item_counts.begin() + item_counts.size() / 2,
                   item_counts.end());
  size_t median_items = item_counts[item_counts.size() / 2];
  std::vector<std::vector<std::pair<size_t, size_t>>> by_size(kShards);
  for (size_t i = 0; i < corpus.num_instances(); ++i) {
    const ProblemInstance& instance = corpus.instances()[i];
    if (instance.num_items() != median_items) continue;
    size_t reviews = 0;
    for (const Product* item : instance.items) reviews += item->reviews.size();
    by_size[router.ShardForTarget(instance.target().id)].push_back(
        {reviews, i});
  }
  Rng rng(seed, 29);
  std::vector<std::vector<size_t>> picks(kShards);
  for (size_t shard = 0; shard < kShards; ++shard) {
    std::vector<std::pair<size_t, size_t>>& candidates = by_size[shard];
    std::sort(candidates.begin(), candidates.end());
    size_t strata = std::min(kHotTargets / kShards, candidates.size());
    for (size_t s = 0; s < strata; ++s) {
      size_t begin = s * candidates.size() / strata;
      size_t end = (s + 1) * candidates.size() / strata;
      picks[shard].push_back(
          candidates[begin + rng.UniformU32(
                                 static_cast<uint32_t>(end - begin))]
              .second);
    }
    rng.Shuffle(&picks[shard]);
  }
  std::vector<size_t> hot;
  for (size_t k = 0; k < kHotTargets / kShards; ++k) {
    for (size_t shard = 0; shard < kShards; ++shard) {
      if (k < picks[shard].size()) hot.push_back(picks[shard][k]);
    }
  }
  return hot;
}

SelectRequest HotRequest(const IndexedCorpus& corpus,
                         const std::vector<size_t>& hot, size_t rank) {
  SelectRequest request;
  request.target_id = corpus.instances()[hot[rank]].target().id;
  request.selector = "CompaReSetS+";
  request.options.m = kMinM + rank % (kMaxM - kMinM + 1);
  return request;
}

}  // namespace

Status RunHotIngest(const RunArgs& args, const PassOptions& pass,
                    Tracer* tracer, RunReport* report) {
  std::vector<SetupTimes> setups;
  COMPARESETS_ASSIGN_OR_RETURN(
      std::unique_ptr<IngestStack> stack,
      TimedSetup<IngestStack>(
          pass.setup_reps,
          [&] { return BuildStack(args.seed, args.run_dir, NextStackId()); },
          &setups));
  ReportSetup(setups, report);
  const IndexedCorpus& corpus = *stack->corpus;
  ShardRouter& router = *stack->router;

  std::vector<size_t> hot = PickHotSet(corpus, router, args.seed);
  Zipf zipf(hot.size(), kZipfExponent);
  size_t planned = static_cast<size_t>(std::ceil(pass.seconds *
                                                 kRecordsPerSecond));
  std::vector<WalRecord> records = MakeRecords(stack->base, args.seed, planned);
  report->Info("hot_targets", std::to_string(hot.size()));
  report->Info("readers", std::to_string(kReaders));
  report->Info("records_per_second", std::to_string(kRecordsPerSecond));
  report->Info("records_per_drain", std::to_string(kRecordsPerDrain));

  // Warm-up: every hot target once, so the timed reads start memo-hot.
  std::vector<SelectRequest> warm;
  for (size_t rank = 0; rank < hot.size(); ++rank) {
    warm.push_back(HotRequest(corpus, hot, rank));
  }
  (void)router.SelectBatch(warm);

  std::vector<std::vector<double>> latencies(kReaders);
  std::vector<OpCounts> read_counts(kReaders);
  std::vector<std::string> probe_errors(kReaders);
  std::vector<uint64_t> probes_skipped(kReaders, 0);
  std::vector<uint64_t> unavailable_retries(kReaders, 0);
  LayerStats layers;
  OpCounts appends, syncs, drains;
  std::vector<double> lags, lateness, append_s, sync_s, drain_s;
  size_t shards_touched = 0;
  size_t appended = 0;
  std::string writer_error;

  CpuTicks ticks_before = ReadCpuTicks();
  double start = NowSeconds();
  double end = start + pass.seconds;
  std::vector<WindowCounter> windows(kReaders,
                                     WindowCounter(start, pass.seconds));
  std::thread writer([&] {
    std::vector<double> pending_due;
    auto drain = [&](bool timed) {
      uint64_t request_id = tracer->NewRequest();
      double s0 = NowSeconds();
      Status synced = stack->writer.Sync();
      double s1 = NowSeconds();
      tracer->Record("ingest.wal_sync", request_id, 0, s0, s1);
      syncs.Record(synced);
      if (!synced.ok()) {
        writer_error = synced.ToString();
        return;
      }
      Result<IngestDrainStats> drained = stack->driver->DrainOnce();
      double s2 = NowSeconds();
      tracer->Record("ingest.drain_once", request_id, 0, s1, s2);
      drains.Record(drained.status());
      if (!drained.ok()) {
        writer_error = drained.status().ToString();
        return;
      }
      sync_s.push_back(s1 - s0);
      drain_s.push_back(s2 - s1);
      shards_touched += drained.value().shards_touched;
      if (timed) {
        for (double due : pending_due) lags.push_back(s2 - due);
      }
      pending_due.clear();
    };
    for (size_t k = 0; k < records.size(); ++k) {
      double due = start + static_cast<double>(k) / kRecordsPerSecond;
      if (due >= end) break;
      double now = NowSeconds();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
      }
      double a0 = NowSeconds();
      lateness.push_back(a0 - due);
      Status status = stack->writer.Append(records[k]);
      double a1 = NowSeconds();
      tracer->Record("ingest.wal_append", tracer->NewRequest(), 0, a0, a1);
      appends.Record(status);
      if (!status.ok()) {
        writer_error = status.ToString();
        return;
      }
      ++appended;
      append_s.push_back(a1 - a0);
      pending_due.push_back(due);
      if (pending_due.size() == kRecordsPerDrain) {
        drain(true);
        if (!writer_error.empty()) return;
      }
    }
    // Publish the partial tail so the oracle sees every appended record;
    // its lag includes the end of the run, so it is not a lag sample.
    if (!pending_due.empty()) drain(false);
  });

  RunThreads(kReaders, [&](size_t reader) {
    Rng draws(args.seed, 40 + reader);
    while (NowSeconds() < end) {
      SelectRequest request = HotRequest(corpus, hot, zipf.Draw(&draws));
      double t0 = NowSeconds();
      Result<SelectResponse> response = router.Select(request);
      // A shard answers kUnavailable while a drain publishes its new
      // snapshot; the reader retries like any client of `serve` would,
      // and the wait counts in the read's latency.
      while (response.status().code() == StatusCode::kUnavailable &&
             NowSeconds() - t0 < kUnavailableRetrySeconds) {
        ++unavailable_retries[reader];
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        response = router.Select(request);
      }
      double t1 = NowSeconds();
      latencies[reader].push_back(t1 - t0);
      read_counts[reader].Record(response.status());
      if (response.ok()) windows[reader].Add(t1);
      if (!response.ok() || !tracer->enabled()) continue;
      layers.ObserveSelectSpan(t1 - t0);
      layers.Observe(response.value());
      // Spans are recorded after the fact and only for memo misses: a
      // hit runs no layer below the memo, and a span per hit would
      // outnumber the span cap many times over.
      if (response.value().result_cache_hit) continue;
      // Probe against the snapshot that answered; skip if a drain has
      // replaced it since.
      const SelectionEngine& engine =
          router.shard_engine(router.ShardForTarget(request.target_id));
      uint64_t epoch = engine.corpus_epoch();
      std::shared_ptr<const IndexedCorpus> snapshot = engine.corpus();
      if (epoch != response.value().trace.corpus_epoch ||
          engine.corpus_epoch() != epoch) {
        ++probes_skipped[reader];
        continue;
      }
      uint64_t request_id = tracer->NewRequest();
      uint64_t root = tracer->ReserveId();
      tracer->Record("router.select", request_id, root, t0, t1);
      Status probed = ProbeLayers(*snapshot, request, response.value(), true,
                                  tracer, request_id, root);
      tracer->RecordWithId(root, "client.request", request_id, 0, t0,
                           NowSeconds());
      if (!probed.ok() && probe_errors[reader].empty()) {
        probe_errors[reader] = probed.ToString();
      }
    }
  });
  double elapsed = NowSeconds() - start;
  ReportHostLoad(ticks_before, ReadCpuTicks(), report);
  writer.join();
  if (!writer_error.empty()) report->Fail("writer: " + writer_error);

  std::vector<double> all;
  OpCounts reads;
  uint64_t skipped = 0;
  uint64_t retries = 0;
  WindowCounter merged(start, pass.seconds);
  for (size_t r = 0; r < kReaders; ++r) {
    merged.Merge(windows[r]);
    retries += unavailable_retries[r];
    all.insert(all.end(), latencies[r].begin(), latencies[r].end());
    reads.Add(read_counts[r]);
    skipped += probes_skipped[r];
    if (!probe_errors[r].empty()) report->Fail(probe_errors[r]);
  }
  report->ops["read"] = reads;
  report->Info("read_retries_after_unavailable", std::to_string(retries));
  report->ops["append"] = appends;
  report->ops["sync"] = syncs;
  report->ops["drain"] = drains;
  ReportThroughput(merged, reads.succeeded, elapsed, report);
  ReportLatency(all, report);
  report->Set("ingest_lag_p50_ms", 1e3 * Percentile(lags, 0.50), "ms");
  report->Set("ingest_lag_p99_ms", 1e3 * Percentile(lags, 0.99), "ms");
  report->Info("ingest_lag_samples", std::to_string(lags.size()));
  report->Info("records_appended", std::to_string(appended));
  report->Info("drain_ms_mean", std::to_string(1e3 * Mean(drain_s)));
  report->Info("drain_ms_max", std::to_string(1e3 * Percentile(drain_s, 1.0)));
  report->Info("writer_late_p50_ms",
               std::to_string(1e3 * Percentile(lateness, 0.5)));
  report->Info("writer_late_max_ms",
               std::to_string(1e3 * Percentile(lateness, 1.0)));

  // Oracle: the delta-served router must answer a sample exactly as a
  // router built by IndexedCorpus::Build over the final corpus does.
  Corpus final_corpus = stack->base;
  for (size_t k = 0; k < appended; ++k) {
    COMPARESETS_RETURN_NOT_OK(ApplyWalRecordToCorpus(records[k], &final_corpus));
  }
  COMPARESETS_ASSIGN_OR_RETURN(std::shared_ptr<const IndexedCorpus> rebuilt,
                               IndexedCorpus::Build(std::move(final_corpus)));
  // The reference keeps the partition fixed at Create over the initial
  // snapshot, as the live router does, and swaps each shard onto the
  // rebuilt corpus.
  RouterOptions reference_options;
  reference_options.engine.threads = Nproc();
  reference_options.engine.result_capacity = 0;
  reference_options.engine.measure_alignment = true;
  COMPARESETS_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardRouter> reference,
      ShardRouter::Create(stack->corpus, kShards, reference_options));
  for (size_t s = 0; s < kShards; ++s) {
    COMPARESETS_RETURN_NOT_OK(reference->SwapShardCorpus(s, rebuilt));
  }
  std::vector<SelectRequest> checks;
  for (size_t rank = 0; rank < std::min(kOracleHot, hot.size()); ++rank) {
    checks.push_back(HotRequest(corpus, hot, rank));
  }
  Rng pick(args.seed, 37);
  for (size_t k = 0; k < kOracleOther; ++k) {
    SelectRequest request;
    request.target_id =
        corpus.instances()[pick.UniformU32(static_cast<uint32_t>(
                               corpus.num_instances()))]
            .target()
            .id;
    request.selector = "CompaReSetS+";
    request.options.m = kMinM + k % (kMaxM - kMinM + 1);
    checks.push_back(std::move(request));
  }
  auto got = router.SelectBatch(checks);
  auto want = reference->SelectBatch(checks);
  uint64_t digest = 1469598103934665603ULL;
  for (size_t k = 0; k < checks.size(); ++k) {
    if (!got[k].ok() || !want[k].ok()) {
      report->Fail("oracle: " + checks[k].target_id + " failed: " +
                   (got[k].ok() ? want[k].status() : got[k].status())
                       .ToString());
      continue;
    }
    std::string diff = CompareAnswers(got[k].value(), want[k].value());
    if (!diff.empty()) report->Fail("oracle: " + diff);
    digest = DigestResponse(want[k].value(), digest);
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  report->Info("payload_digest", hex);
  report->Info("oracle_checked", std::to_string(checks.size()));

  if (tracer->enabled()) {
    layers.Report(*tracer, report);
    report->Info("probes_skipped_after_drain", std::to_string(skipped));
    report->Set("ingest.append_us_per_record", 1e6 * Mean(append_s), "us");
    report->Set("ingest.sync_ms", 1e3 * Mean(sync_s), "ms");
    report->Set("ingest.drain_ms_per_batch", 1e3 * Mean(drain_s), "ms");
    report->Set("ingest.shards_touched_per_batch",
                drain_s.empty() ? 0.0
                                : static_cast<double>(shards_touched) /
                                      static_cast<double>(drain_s.size()),
                "count");
    report->Set("ingest.lag_p50_ms", report->Get("ingest_lag_p50_ms"), "ms");
    report->Set("ingest.lag_p99_ms", report->Get("ingest_lag_p99_ms"), "ms");
    report->Set("ingest.writer_late_max_ms",
                1e3 * Percentile(lateness, 1.0), "ms");
  }
  return Status::OK();
}

}  // namespace perfbench
