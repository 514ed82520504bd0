#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common.h"

namespace perfbench {

using namespace comparesets;

uint64_t Tracer::NewRequest() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return ++next_request_;
}

uint64_t Tracer::ReserveId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return ++next_id_;
}

uint64_t Tracer::Record(const char* name, uint64_t request, uint64_t parent,
                        double start, double end) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t id = ++next_id_;
  Keep({id, parent, request, name, start, end});
  return id;
}

void Tracer::RecordWithId(uint64_t id, const char* name, uint64_t request,
                          uint64_t parent, double start, double end) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Keep({id, parent, request, name, start, end});
}

void Tracer::Keep(const Span& span) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& span : spans_) {
    if (span.parent != 0) children[span.parent].push_back({span.start, span.end});
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& span : spans_) {
    double duration = span.end - span.start;
    double covered = 0.0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>>& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double cursor = span.start;
      for (auto [begin, end] : intervals) {
        begin = std::max(begin, cursor);
        end = std::min(end, span.end);
        if (end > begin) {
          covered += end - begin;
          cursor = end;
        }
      }
    }
    SpanTotals& t = totals[span.name];
    ++t.count;
    t.seconds += duration;
    t.self_seconds += duration - covered;
  }
  return totals;
}

double Tracer::Seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Span& span : spans_) {
    if (name == span.name) total += span.end - span.start;
  }
  return total;
}

uint64_t Tracer::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t count = 0;
  for (const Span& span : spans_) {
    if (name == span.name) ++count;
  }
  return count;
}

Status Tracer::Write(const std::string& path) const {
  std::map<std::string, SpanTotals> totals = Totals();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return Status::IOError("cannot write " + path);
    double origin = spans_.empty() ? 0.0 : spans_.front().start;
    for (const Span& span : spans_) origin = std::min(origin, span.start);
    for (const Span& span : spans_) {
      std::fprintf(out,
                   "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                   "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.request), span.name,
                   (span.start - origin) * 1e6, (span.end - origin) * 1e6);
    }
    if (std::fclose(out) != 0) return Status::IOError("cannot close " + path);
  }
  std::string totals_path = path + ".totals.json";
  FILE* out = std::fopen(totals_path.c_str(), "w");
  if (out == nullptr) return Status::IOError("cannot write " + totals_path);
  std::fprintf(out, "{");
  bool first = true;
  for (const auto& [name, t] : totals) {
    std::fprintf(out,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.seconds * 1e3,
                 t.self_seconds * 1e3);
    first = false;
  }
  std::fprintf(out, "\n}\n");
  if (std::fclose(out) != 0) {
    return Status::IOError("cannot close " + totals_path);
  }
  return Status::OK();
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
                       uint64_t parent)
    : tracer_(tracer),
      name_(name),
      request_(request),
      parent_(parent),
      id_(tracer->ReserveId()),
      start_(tracer->enabled() ? NowSeconds() : 0.0) {}

ScopedSpan::~ScopedSpan() {
  if (!tracer_->enabled()) return;
  tracer_->RecordWithId(id_, name_, request_, parent_, start_, NowSeconds());
}

}  // namespace perfbench
