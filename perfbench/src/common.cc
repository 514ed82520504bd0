#include "common.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "data/synthetic.h"

namespace perfbench {

using namespace comparesets;

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<size_t>(count);
  }
  return 1;
}

int NextStackId() {
  static std::atomic<int> next{0};
  return next.fetch_add(1);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<Corpus> GenerateCatalog(uint64_t seed) {
  COMPARESETS_ASSIGN_OR_RETURN(SyntheticConfig config,
                               DefaultConfig("Cellphone", kCatalogProducts));
  config.seed = seed * 0x9e3779b97f4a7c15ULL + 17;
  return GenerateCorpus(config);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

struct Fnv {
  uint64_t h;
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Double(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void String(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
};

void AlignmentDoubles(const AlignmentScores& a, std::vector<double>* out) {
  for (const RougeTriple* t : {&a.target_vs_comparative, &a.among_items}) {
    for (const RougeScore* s : {&t->rouge1, &t->rouge2, &t->rougeL}) {
      out->push_back(s->precision);
      out->push_back(s->recall);
      out->push_back(s->f1);
    }
  }
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

uint64_t DigestResponse(const SelectResponse& response, uint64_t seed) {
  Fnv fnv{seed};
  fnv.String(response.target_id);
  fnv.U64(response.item_ids.size());
  for (const std::string& id : response.item_ids) fnv.String(id);
  fnv.U64(response.selections.size());
  for (const Selection& selection : response.selections) {
    fnv.U64(selection.size());
    for (size_t index : selection) fnv.U64(index);
  }
  fnv.Double(response.objective);
  fnv.U64(static_cast<uint64_t>(response.tier));
  fnv.Double(response.objective_gap);
  std::vector<double> alignment;
  AlignmentDoubles(response.alignment, &alignment);
  for (double v : alignment) fnv.Double(v);
  fnv.U64(response.alignment.target_pairs);
  fnv.U64(response.alignment.among_pairs);
  return fnv.h;
}

std::string CompareAnswers(const SelectResponse& got,
                           const SelectResponse& want) {
  const std::string& who = want.target_id;
  if (got.target_id != want.target_id) return who + ": target id differs";
  if (got.item_ids != want.item_ids) return who + ": item ids differ";
  if (got.selections != want.selections) return who + ": selections differ";
  if (!SameBits(got.objective, want.objective)) {
    return who + ": objective differs";
  }
  if (got.tier != want.tier) return who + ": tier differs";
  if (!SameBits(got.objective_gap, want.objective_gap)) {
    return who + ": objective gap differs";
  }
  std::vector<double> a;
  std::vector<double> b;
  AlignmentDoubles(got.alignment, &a);
  AlignmentDoubles(want.alignment, &b);
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return who + ": alignment differs";
  }
  if (got.alignment.target_pairs != want.alignment.target_pairs ||
      got.alignment.among_pairs != want.alignment.among_pairs) {
    return who + ": alignment pair counts differ";
  }
  return "";
}

void OpCounts::Record(const Status& status) {
  ++attempted;
  if (status.ok()) {
    ++succeeded;
  } else if (status.code() == StatusCode::kResourceExhausted ||
             status.code() == StatusCode::kUnavailable) {
    ++refused;
  } else {
    ++failed;
  }
}

void OpCounts::Add(const OpCounts& other) {
  attempted += other.attempted;
  succeeded += other.succeeded;
  failed += other.failed;
  refused += other.refused;
}

void RunReport::Fail(const std::string& error) {
  correct = false;
  errors.push_back(error);
}

void RunReport::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& entry : metrics) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

void RunReport::Info(const std::string& key, const std::string& value) {
  info.push_back({key, value});
}

double RunReport::Get(const std::string& name) const {
  for (const auto& entry : metrics) {
    if (entry.first == name) return entry.second.first;
  }
  return 0.0;
}

uint64_t RunReport::Attempted() const {
  uint64_t total = 0;
  for (const auto& [kind, counts] : ops) total += counts.attempted;
  return total;
}

uint64_t RunReport::Failed() const {
  uint64_t total = 0;
  for (const auto& [kind, counts] : ops) {
    total += counts.failed + counts.refused;
  }
  return total;
}

void WindowCounter::Add(double when, uint64_t n) {
  double offset = (when - start_) / width_;
  if (offset < 0.0 || offset >= static_cast<double>(kWindows)) return;
  counts_[static_cast<size_t>(offset)] += n;
}

void WindowCounter::Merge(const WindowCounter& other) {
  for (size_t w = 0; w < kWindows; ++w) counts_[w] += other.counts_[w];
}

double WindowCounter::MedianRate() const {
  std::vector<double> rates;
  for (uint64_t count : counts_) {
    rates.push_back(static_cast<double>(count) / width_);
  }
  return Median(rates);
}

void ReportThroughput(const WindowCounter& windows, uint64_t ok,
                      double elapsed, RunReport* report) {
  report->Set("throughput_rps", windows.MedianRate(), "req/s");
  report->Info("throughput_whole_phase_rps",
               std::to_string(static_cast<double>(ok) / elapsed));
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  stat >> cpu;
  for (uint64_t& field : fields) stat >> field;
  CpuTicks ticks;
  for (uint64_t field : fields) ticks.total += field;
  ticks.idle = fields[3] + fields[4];
  ticks.steal = fields[7];
  return ticks;
}

void ReportHostLoad(const CpuTicks& before, const CpuTicks& after,
                    RunReport* report) {
  double total = static_cast<double>(after.total - before.total);
  if (total <= 0.0) return;
  report->Info("host_steal_share",
               std::to_string(static_cast<double>(after.steal - before.steal) /
                              total));
  report->Info("host_idle_share",
               std::to_string(static_cast<double>(after.idle - before.idle) /
                              total));
}

void ReportLatency(const std::vector<double>& seconds, RunReport* report) {
  report->Set("latency_p50_ms", 1e3 * Percentile(seconds, 0.50), "ms");
  report->Set("latency_p95_ms", 1e3 * Percentile(seconds, 0.95), "ms");
  report->Set("latency_p99_ms", 1e3 * Percentile(seconds, 0.99), "ms");
  size_t n = seconds.size();
  report->Info("latency_samples", std::to_string(n));
  report->Info("samples_beyond_p95", std::to_string(n / 20));
  report->Info("samples_beyond_p99", std::to_string(n / 100));
}

void RunThreads(size_t threads, const std::function<void(size_t)>& body) {
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t i = 0; i < threads; ++i) workers.emplace_back(body, i);
  for (std::thread& worker : workers) worker.join();
}

void ReportSetup(const std::vector<SetupTimes>& times, RunReport* report) {
  std::vector<double> total, generate, index, serve;
  for (const SetupTimes& t : times) {
    total.push_back(t.total());
    generate.push_back(t.generate_s);
    index.push_back(t.index_s);
    serve.push_back(t.serve_start_s);
  }
  report->Set("setup_s", Median(total), "s");
  report->Set("setup.generate_s", Median(generate), "s");
  report->Set("setup.index_s", Median(index), "s");
  report->Set("setup.serve_start_s", Median(serve), "s");
  report->Info("setup_reps", std::to_string(times.size()));
}

}  // namespace perfbench
