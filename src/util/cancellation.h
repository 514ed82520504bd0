// Cooperative cancellation and per-request execution control.
//
// A serving path must be able to abandon work it no longer wants: a
// client went away (CancelToken) or a latency contract ran out
// (Deadline). Neither can preempt a compute loop, so the solvers check
// an ExecControl at iteration boundaries — NOMP atom steps, NNLS
// active-set iterations, per-item / per-sweep selector loops — and
// return kCancelled / kDeadlineExceeded instead of running on.
//
// All members of ExecControl are optional; a nullptr ExecControl* (the
// default everywhere) costs nothing. The iteration counter doubles as
// the "solver iterations" field of the request trace: every control
// check is one solver-loop boundary crossed.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"
#include "util/timer.h"

namespace comparesets {

/// One named, timed phase of a request (e.g. "crs.items",
/// "compare_sets_plus.round"). Repeated phases record repeated spans;
/// consumers aggregate by name.
struct TraceSpan {
  std::string name;
  double seconds = 0.0;
};

/// Thread-safe collector of TraceSpans for one request. The engine owns
/// one per request and hands the selectors a pointer through
/// ExecControl; worker threads may Record() concurrently. Span order is
/// the order Record() calls complete, which for parallel phases is
/// nondeterministic — consumers must not depend on it (RequestTrace
/// serializes spans aggregated by name for this reason).
class SpanSink {
 public:
  void Record(std::string name, double seconds) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(TraceSpan{std::move(name), seconds});
  }

  /// Moves the collected spans out; the sink is empty afterwards.
  std::vector<TraceSpan> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(spans_);
  }

 private:
  std::mutex mutex_;
  std::vector<TraceSpan> spans_;
};

/// One-shot cancellation flag shared between a requester and the worker
/// executing its request. Thread-safe; cancelling is idempotent.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-request execution controls, threaded from SelectionEngine through
/// the selectors into the NOMP/NNLS inner loops. A view: the engine owns
/// the deadline/token/counter for the request's lifetime.
struct ExecControl {
  const Deadline* deadline = nullptr;    ///< nullptr = no latency bound.
  const CancelToken* cancel = nullptr;   ///< nullptr = not cancellable.
  /// Incremented once per Check() — i.e. once per solver iteration
  /// boundary — giving the request trace its iteration count. May be
  /// shared across worker threads (atomic).
  std::atomic<uint64_t>* iterations = nullptr;
  /// Incremented once per NNLS solve that hit its iteration cap before
  /// dual feasibility (silent non-convergence would otherwise vanish);
  /// feeds the request trace and the solver.nnls_nonconverged counter.
  std::atomic<uint64_t>* nnls_nonconverged = nullptr;
  /// Incremented once per intra-request fan-out that actually went
  /// parallel (util/parallel.h RunParallel with > 1 lane); feeds the
  /// request trace and the solver.intra_parallel_fanouts counter.
  std::atomic<uint64_t>* parallel_fanouts = nullptr;
  /// Incremented by the task count of each such fan-out; feeds the
  /// request trace and the solver.intra_parallel_tasks counter.
  std::atomic<uint64_t>* parallel_tasks = nullptr;
  /// Destination for named phase timings (nullptr = don't record).
  /// Shared across the request's worker threads; SpanSink locks.
  SpanSink* spans = nullptr;

  /// Counts one iteration, then reports whether work should continue.
  /// `where` names the loop for the error message ("nomp", "nnls", ...).
  Status Check(const char* where) const;
};

/// Deadline/cancel check at a stage boundary. Unlike ExecControl::Check
/// this does not tick the solver-iteration counter — that counter
/// measures work inside the solvers, not engine plumbing or evaluation.
Status CheckLive(const ExecControl& control, const char* where);

/// Records a span on a possibly-null control / possibly-null sink.
inline void RecordSpan(const ExecControl* control, const char* name,
                       double seconds) {
  if (control == nullptr || control->spans == nullptr) return;
  control->spans->Record(name, seconds);
}

/// Check() on a possibly-null control: the pattern every solver uses.
inline Status CheckExec(const ExecControl* control, const char* where) {
  if (control == nullptr) return Status::OK();
  return control->Check(where);
}

}  // namespace comparesets
