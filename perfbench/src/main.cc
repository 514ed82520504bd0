// perfbench: the serving benchmark binary.
//
//   perfbench --workload select_align|batch_rpc|hot_ingest --seed N
//             --seconds S --trace 0|1 --run_dir DIR --out_dir DIR
//
// --trace 0 runs one pass of S seconds and reports the end-to-end
// metrics. --trace 1 runs an untraced pass and a traced pass of S/2
// seconds each on the same seed, reports the per-layer metrics of the
// traced pass plus the tracing overhead (traced against untraced), and
// writes the traced pass's spans to DIR/spans-<workload>.jsonl.
//
// The last line of stdout is `PERFBENCH_RESULT {json}`; perfbench/run.py
// turns it into the benchmark's result line. Exit code 0 means the run
// completed and its oracle passed; a failed oracle exits 1, bad usage 2.

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "trace.h"
#include "util/logging.h"
#include "workloads.h"

using namespace perfbench;
using comparesets::Status;

namespace {

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload does not exercise reads 0 (e.g. router.* on lone Selects,
/// ingest.* without writes, rouge.* with alignment off).
const std::pair<const char*, const char*> kPerLayerMetrics[] = {
    {"rouge.ms_per_req", "ms"},
    {"rouge.share", "share"},
    {"rouge.pairs_per_req", "count"},
    {"opinion.vectors_ms_per_req", "ms"},
    {"core.design_ms_per_req", "ms"},
    {"core.solve_ms.crs", "ms"},
    {"core.solve_ms.compare_sets", "ms"},
    {"core.solve_ms.compare_sets_plus", "ms"},
    {"core.solver_iterations", "count"},
    {"core.nnls_nonconverged", "count"},
    {"engine.prepare_ms_per_req", "ms"},
    {"engine.queue_p99_ms", "ms"},
    {"engine.memo_hit_ratio", "share"},
    {"engine.vector_hit_ratio", "share"},
    {"engine.unattributed_ms_per_req", "ms"},
    {"router.overhead_ms_per_batch", "ms"},
    {"router.shard_skew", "ratio"},
    {"net.codec_us_per_req", "us"},
    {"net.bytes_per_req", "bytes"},
    {"net.frames_served", "count"},
    {"net.connections_opened", "count"},
    {"net.transport_retries", "count"},
    {"ingest.append_us_per_record", "us"},
    {"ingest.sync_ms", "ms"},
    {"ingest.drain_ms_per_batch", "ms"},
    {"ingest.shards_touched_per_batch", "count"},
    {"ingest.lag_p50_ms", "ms"},
    {"ingest.lag_p99_ms", "ms"},
    {"ingest.writer_late_max_ms", "ms"},
    {"setup.generate_s", "s"},
    {"setup.index_s", "s"},
    {"setup.serve_start_s", "s"},
    {"trace.throughput_overhead", "share"},
    {"trace.latency_p50_overhead", "share"},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The run's scratch directory for WAL files and unix sockets. It must
/// not exist beforehand, so no run can read another run's log, and it
/// is removed with everything in it when the run ends, failed or not.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    created_ = ::mkdir(path_.c_str(), 0700) == 0;
    if (!created_) error_ = std::strerror(errno);
  }
  ~ScratchDir() {
    if (!created_) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  bool created() const { return created_; }
  const std::string& error() const { return error_; }

 private:
  std::string path_;
  bool created_ = false;
  std::string error_;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "select_align|batch_rpc|hot_ingest --seed N --seconds S "
               "--trace 0|1 --run_dir DIR --out_dir DIR\n",
               why);
  return 2;
}

Status RunPass(const RunArgs& args, const PassOptions& pass, Tracer* tracer,
               RunReport* report) {
  if (args.workload == "select_align") {
    return RunSelectAlign(args, pass, tracer, report);
  }
  if (args.workload == "batch_rpc") {
    return RunBatchRpc(args, pass, tracer, report);
  }
  return RunHotIngest(args, pass, tracer, report);
}

void PrintReport(const char* title, const RunReport& report) {
  std::printf("== %s\n", title);
  for (const auto& [name, value] : report.metrics) {
    std::printf("  %-34s %14.6f %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  for (const auto& [kind, c] : report.ops) {
    std::printf("  ops.%-30s attempted %llu  succeeded %llu  failed %llu  "
                "refused %llu\n",
                kind.c_str(), static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.succeeded),
                static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.refused));
  }
  for (const auto& [key, value] : report.info) {
    std::printf("  %-34s %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& error : report.errors) {
    std::printf("  ERROR %s\n", error.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  (void)argc;
  (void)argv;
  std::fprintf(stderr,
               "perfbench: refusing to report from a build without NDEBUG "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 2;
#else
  comparesets::SetLogLevel(comparesets::LogLevel::kWarning);
  RunArgs args;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = true;
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--run_dir") {
      args.run_dir = value;
    } else if (flag == "--out_dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags come in --name value pairs");
  if (args.workload != "select_align" && args.workload != "batch_rpc" &&
      args.workload != "hot_ingest") {
    return Usage("unknown or missing --workload");
  }
  if (!have_seed || !have_seconds || args.seconds <= 0.0 || trace < 0 ||
      args.run_dir.empty() || args.out_dir.empty()) {
    return Usage("missing or invalid flag");
  }
  args.trace = trace == 1;
  ScratchDir scratch(args.run_dir);
  if (!scratch.created()) {
    std::fprintf(stderr, "perfbench: cannot create run dir %s: %s\n",
                 args.run_dir.c_str(), scratch.error().c_str());
    return 2;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              trace);
  std::printf("machine nproc=%zu hw_concurrency=%u catalog_products=%zu "
              "m=%zu..%zu ndebug=1\n",
              Nproc(), std::thread::hardware_concurrency(), kCatalogProducts,
              kMinM, kMaxM);

  RunReport report;
  if (!args.trace) {
    Tracer off(false);
    PassOptions pass{args.seconds, 3};
    Status status = RunPass(args, pass, &off, &report);
    if (!status.ok()) report.Fail("run: " + status.ToString());
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    PrintReport("end-to-end", report);
  } else {
    PassOptions pass{args.seconds / 2.0, 1};
    RunReport untraced;
    Tracer off(false);
    Status status = RunPass(args, pass, &off, &untraced);
    if (!status.ok()) untraced.Fail("untraced pass: " + status.ToString());
    PrintReport("untraced pass", untraced);

    for (const auto& [name, unit] : kPerLayerMetrics) report.Set(name, 0.0, unit);
    Tracer tracer(true);
    status = RunPass(args, pass, &tracer, &report);
    if (!status.ok()) report.Fail("traced pass: " + status.ToString());
    double tput = report.Get("throughput_rps");
    double p50 = report.Get("latency_p50_ms");
    report.Set("trace.throughput_overhead",
               tput > 0.0 ? untraced.Get("throughput_rps") / tput - 1.0 : 0.0,
               "share");
    double base_p50 = untraced.Get("latency_p50_ms");
    report.Set("trace.latency_p50_overhead",
               base_p50 > 0.0 ? p50 / base_p50 - 1.0 : 0.0, "share");
    for (const std::string& error : untraced.errors) report.Fail(error);
    for (const auto& [kind, counts] : untraced.ops) {
      report.ops["untraced." + kind] = counts;
    }
    std::string path = args.out_dir + "/spans-" + args.workload + ".jsonl";
    Status written = tracer.Write(path);
    if (!written.ok()) report.Fail("spans: " + written.ToString());
    report.Info("span_file", path);
    report.Info("spans_kept", std::to_string(tracer.size()));
    report.Info("spans_dropped", std::to_string(tracer.dropped()));
    std::printf("== span totals (count, total ms, self ms)\n");
    for (const auto& [name, t] : tracer.Totals()) {
      std::printf("  %-34s %8llu %14.3f %14.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.seconds * 1e3,
                  t.self_seconds * 1e3);
    }
    PrintReport("traced pass", report);
  }

  uint64_t attempted = report.Attempted();
  uint64_t failed = report.Failed();
  std::printf("failed_ratio %.6f (%llu of %llu operations)\n",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    json += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
            JsonNumber(value.first) + ", \"unit\": " +
            JsonString(value.second) + "}";
    first = false;
  }
  json += "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : report.info) {
    json += (first ? "" : ", ") + JsonString(key) + ": " + JsonString(value);
    first = false;
  }
  json += "}, \"errors\": [";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    json += (i ? ", " : "") + JsonString(report.errors[i]);
  }
  json += "]}";
  std::printf("PERFBENCH_RESULT %s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
#endif
}
