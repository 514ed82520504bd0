// Bench-side tracing: spans recorded around calls into the library's
// public functions, kept in memory and written out when the run ends.
// Nothing inside the library is instrumented; a layer's time is the
// time of the public call that enters it.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a root span.
  uint64_t request = 0;  ///< Request the span belongs to.
  const char* name = "";  ///< Static string: the layer call.
  double start = 0.0;    ///< NowSeconds() at entry.
  double end = 0.0;
};

/// Per-name totals over every recorded span.
struct SpanTotals {
  uint64_t count = 0;
  double seconds = 0.0;       ///< Sum of durations.
  double self_seconds = 0.0;  ///< Sum of (duration - child coverage).
};

class Tracer {
 public:
  /// A disabled tracer records nothing and costs one branch per call.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A fresh request id (0 when disabled).
  uint64_t NewRequest();

  /// Records a finished span; returns its id (0 when disabled).
  uint64_t Record(const char* name, uint64_t request, uint64_t parent,
                  double start, double end);

  /// Reserves a span id before the span ends, so children recorded on
  /// other threads can name it as their parent.
  uint64_t ReserveId();
  /// Records a span under an id from ReserveId.
  void RecordWithId(uint64_t id, const char* name, uint64_t request,
                    uint64_t parent, double start, double end);

  /// Totals per span name; self time is each span's duration minus the
  /// union of its children's intervals (clipped to the span).
  std::map<std::string, SpanTotals> Totals() const;

  /// Duration sum of every span named `name`.
  double Seconds(const std::string& name) const;
  uint64_t Count(const std::string& name) const;

  /// Writes every span as one JSON object per line, then a totals file
  /// next to it (`<path>.totals.json`).
  comparesets::Status Write(const std::string& path) const;

  size_t size() const;
  /// Spans not kept because the in-memory cap was reached.
  uint64_t dropped() const;

  /// Spans kept in memory at most; later ones are counted as dropped.
  static constexpr size_t kMaxSpans = 400000;

 private:
  /// Appends under mutex_, or counts the span as dropped at the cap.
  void Keep(const Span& span);

  bool enabled_;
  mutable std::mutex mutex_;
  uint64_t next_id_ = 0;
  uint64_t next_request_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) under `parent`.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
             uint64_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t request_;
  uint64_t parent_;
  uint64_t id_;
  double start_;
};

}  // namespace perfbench
