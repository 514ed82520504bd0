// RequestPipeline: the request-lifecycle policy that used to be welded
// into SelectionEngine — admission control (bounded in-flight + queue),
// liveness checks at stage boundaries, and the transient-failure retry
// loop — extracted so several shard engines can share ONE pipeline.
//
// Why shared matters: a ShardRouter runs N engines over one machine's
// resources. Admission is a statement about the machine ("at most K
// solves at once"), not about any one shard, so the router hands every
// shard engine the same RequestPipeline and the K-slot budget spans all
// of them. An engine built standalone makes itself a private pipeline
// from its own knobs — exactly the old behaviour.
//
// Thread-safety: all methods are safe to call concurrently.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "util/cancellation.h"
#include "util/scheduler.h"
#include "util/status.h"
#include "util/timer.h"

namespace comparesets {

struct PipelineOptions {
  /// Max requests solving at once (0 = unthrottled). Excess requests
  /// wait in the admission queue.
  size_t max_in_flight = 0;
  /// Waiting slots beyond max_in_flight for INTERACTIVE requests. An
  /// interactive request arriving when its queue is full is refused
  /// with kResourceExhausted.
  size_t max_queue = 64;
  /// Waiting slots for BATCH requests (0 = same as max_queue). Batch
  /// sheds first: its budget is separate, it is the one the
  /// SloController shrinks under SLO pressure, and a queued batch
  /// request never takes a freed slot while an interactive request
  /// waits.
  size_t max_batch_queue = 0;
  /// Attempts per request for *transient* failures. 1 = no retries.
  int max_attempts = 1;
  /// First retry backoff; doubles per attempt. Sleeps are clamped to
  /// the request's remaining deadline.
  double retry_backoff_seconds = 0.001;
};

class RequestPipeline {
 public:
  explicit RequestPipeline(PipelineOptions options = {});

  const PipelineOptions& options() const { return options_; }

  /// Whether admission control is active (max_in_flight > 0).
  bool throttled() const { return options_.max_in_flight > 0; }

  /// Blocks until the request may run (or fails with
  /// kResourceExhausted / kDeadlineExceeded / kCancelled). Every OK
  /// return must be paired with one Release() — use Slot.
  ///
  /// Priority semantics: each class waits against its own queue budget,
  /// and a batch request neither takes a freed slot nor stops waiting
  /// while any interactive request is queued — interactive work is
  /// never queued behind batch work, mirroring the scheduler contract.
  Status Admit(const Deadline& deadline, const CancelToken* cancel,
               RequestPriority priority = RequestPriority::kInteractive);
  void Release();

  /// Dynamically caps the batch waiting budget (the SLO controller's
  /// shedding lever). Applies to requests admitted after the call;
  /// already-queued batch requests keep waiting. Restore by setting the
  /// configured budget back (see configured_batch_queue()).
  void SetBatchQueueLimit(size_t limit) {
    batch_queue_limit_.store(limit, std::memory_order_relaxed);
    cv_.notify_all();
  }

  /// The batch budget currently in force (configured or SLO-shrunk).
  size_t batch_queue_limit() const {
    return batch_queue_limit_.load(std::memory_order_relaxed);
  }

  /// The batch budget the options configured (max_batch_queue, with 0
  /// meaning "same as max_queue").
  size_t configured_batch_queue() const {
    return options_.max_batch_queue > 0 ? options_.max_batch_queue
                                        : options_.max_queue;
  }

  /// Releases one admission slot on destruction (RAII, so every early
  /// return after a successful Admit releases exactly once).
  class Slot {
   public:
    Slot() = default;
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;
    ~Slot() {
      if (pipeline_ != nullptr) pipeline_->Release();
    }
    /// Binds the slot to the pipeline whose Admit just succeeded.
    void Arm(RequestPipeline* pipeline) { pipeline_ = pipeline; }

   private:
    RequestPipeline* pipeline_ = nullptr;
  };

  /// Failures worth retrying: spurious backend errors (kInternal —
  /// notably injected faults — and kIOError). Bad ids, bad arguments,
  /// deadline expiry and cancellation are final on first occurrence.
  static bool IsTransient(StatusCode code) {
    return code == StatusCode::kInternal || code == StatusCode::kIOError;
  }

  /// The attempt loop: runs `attempt(n)` (n = 1-based attempt number)
  /// up to max_attempts times, sleeping an exponentially doubling
  /// backoff (clamped to the deadline) between transient failures.
  /// `on_retry(slept_seconds)` fires once per retry so the caller can
  /// count it and bill the sleep to its trace. Non-transient failures,
  /// exhausted attempts, and post-sleep deadline/cancel expiry all
  /// return immediately.
  template <typename AttemptFn, typename OnRetryFn>
  auto RunWithRetries(const ExecControl& control, const Deadline& deadline,
                      AttemptFn&& attempt, OnRetryFn&& on_retry) const
      -> decltype(attempt(1)) {
    int max_attempts = std::max(1, options_.max_attempts);
    double backoff = std::max(0.0, options_.retry_backoff_seconds);
    for (int n = 1;; ++n) {
      auto outcome = attempt(n);
      if (outcome.ok()) return outcome;
      Status status = outcome.status();
      if (!IsTransient(status.code()) || n >= max_attempts) return outcome;
      double sleep_seconds =
          std::min(backoff, std::max(0.0, deadline.RemainingSeconds()));
      if (sleep_seconds > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(sleep_seconds));
      }
      on_retry(sleep_seconds);
      backoff *= 2.0;
      Status still_live = CheckLive(control, "retry");
      if (!still_live.ok()) return still_live;
    }
  }

 private:
  PipelineOptions options_;
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t in_flight_ = 0;
  /// Waiters per priority class (indexed by RequestPriority).
  size_t queued_[kNumPriorityClasses] = {0, 0};
  /// Current batch waiting budget; atomic so the SLO controller can
  /// shrink it without taking the admission lock.
  std::atomic<size_t> batch_queue_limit_{0};
};

}  // namespace comparesets
