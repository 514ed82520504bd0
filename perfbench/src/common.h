// Shared pieces of the serving benchmark: run arguments, the seeded
// catalog, setup timing, latency statistics, payload digests and the
// result report every workload fills in.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/corpus.h"
#include "service/engine.h"
#include "service/indexed_corpus.h"
#include "util/status.h"

namespace perfbench {

/// Products in the synthetic Cellphone catalog every workload serves.
inline constexpr size_t kCatalogProducts = 3000;
/// Review budgets m drawn per request (inclusive range).
inline constexpr size_t kMinM = 3;
inline constexpr size_t kMaxM = 7;

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Per-run scratch directory (WAL files, unix sockets). Relative to
  /// the working directory, so socket paths stay short.
  std::string run_dir;
  /// Where the traced run writes its span files.
  std::string out_dir;
};

/// Wall-clock split of one set-up, in seconds.
struct SetupTimes {
  double generate_s = 0.0;  ///< GenerateCorpus.
  double index_s = 0.0;     ///< IndexedCorpus::Build.
  double serve_start_s = 0.0;  ///< Router / ShardServer start.
  double total() const { return generate_s + index_s + serve_start_s; }
};

/// Cores the benchmark may use: sched_getaffinity's count.
size_t Nproc();

/// A process-unique number for naming one stack's files (WAL, sockets),
/// so no set-up or pass ever opens a file an earlier one left behind.
int NextStackId();

/// Seconds on a monotonic clock.
double NowSeconds();

/// The seeded catalog: DefaultConfig("Cellphone", kCatalogProducts) with
/// the synthetic generator's seed derived from the run seed.
comparesets::Result<comparesets::Corpus> GenerateCatalog(uint64_t seed);

/// Linear-interpolated percentile (q in [0, 1]) of `values`; 0 if empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set of this process, in MB (VmHWM).
double PeakRssMb();

/// FNV-1a over a response's answer: item ids, selections, objective,
/// tier, gap and every alignment double (bit patterns).
uint64_t DigestResponse(const comparesets::SelectResponse& response,
                        uint64_t seed = 1469598103934665603ULL);

/// Empty when the two answers match bit for bit (item ids, selections,
/// objective, tier, gap, alignment doubles and pair counts); otherwise
/// the first difference.
std::string CompareAnswers(const comparesets::SelectResponse& got,
                           const comparesets::SelectResponse& want);

/// Operation accounting for one kind of operation.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;  ///< kResourceExhausted / kUnavailable answers.
  void Record(const comparesets::Status& status);
  void Add(const OpCounts& other);
};

/// What one workload run reports. Metrics keep insertion order.
struct RunReport {
  bool correct = true;
  std::vector<std::string> errors;
  std::map<std::string, OpCounts> ops;  ///< "read", "batch", "append", …
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics;  ///< name -> (value, unit)
  std::vector<std::pair<std::string, std::string>> info;  ///< printed only

  void Fail(const std::string& error);
  void Set(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& value);
  double Get(const std::string& name) const;
  uint64_t Attempted() const;
  uint64_t Failed() const;  ///< failed + refused, over every kind
};

/// Runs `build` `reps` times, keeping the last stack; setup_s is the
/// median total. Each discarded stack is destroyed before the next
/// build starts.
template <typename Stack>
comparesets::Result<std::unique_ptr<Stack>> TimedSetup(
    int reps,
    const std::function<comparesets::Result<std::unique_ptr<Stack>>()>& build,
    std::vector<SetupTimes>* times) {
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < reps; ++i) {
    stack.reset();
    auto built = build();
    if (!built.ok()) return built.status();
    stack = std::move(built).value();
    times->push_back(stack->setup);
  }
  return stack;
}

/// Ok completions of the timed phase counted in kWindows equal windows.
/// throughput_rps is the median window's rate, so a burst of host noise
/// in one part of a run moves the run's figure less than a whole-run
/// average would. One counter per thread; Merge after joining.
class WindowCounter {
 public:
  static constexpr size_t kWindows = 10;
  WindowCounter(double start, double seconds)
      : start_(start), width_(seconds / kWindows) {}
  /// Counts `n` completions at time `when`; ignored outside the phase.
  void Add(double when, uint64_t n = 1);
  void Merge(const WindowCounter& other);
  double MedianRate() const;

 private:
  double start_;
  double width_;
  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kWindows, 0);
};

/// Sets throughput_rps (median window rate) and records the whole-phase
/// average as info.
void ReportThroughput(const WindowCounter& windows, uint64_t ok,
                      double elapsed, RunReport* report);

/// Machine-wide CPU time from /proc/stat, in clock ticks.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t idle = 0;   ///< idle + iowait
  uint64_t steal = 0;  ///< taken by the hypervisor for other guests
};
CpuTicks ReadCpuTicks();

/// Records the host's steal and idle shares between two readings, so a
/// slow run can be told apart from a busy host.
void ReportHostLoad(const CpuTicks& before, const CpuTicks& after,
                    RunReport* report);

/// Latency metrics of caller-visible calls: latency_p50_ms,
/// latency_p95_ms and latency_p99_ms, plus the sample count and how
/// many samples lie beyond each tail percentile.
void ReportLatency(const std::vector<double>& seconds, RunReport* report);

/// Runs body(i) for i in [0, threads) on their own threads; joins all.
void RunThreads(size_t threads, const std::function<void(size_t)>& body);

/// Adds setup_s (median total over `times`) and the three setup phases
/// (medians) to `report`.
void ReportSetup(const std::vector<SetupTimes>& times, RunReport* report);

}  // namespace perfbench
