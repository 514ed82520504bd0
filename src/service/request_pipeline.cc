#include "service/request_pipeline.h"

namespace comparesets {

RequestPipeline::RequestPipeline(PipelineOptions options)
    : options_(options) {
  batch_queue_limit_.store(configured_batch_queue(),
                           std::memory_order_relaxed);
}

Status RequestPipeline::Admit(const Deadline& deadline,
                              const CancelToken* cancel,
                              RequestPriority priority) {
  if (options_.max_in_flight == 0) return Status::OK();
  const bool batch = priority == RequestPriority::kBatch;
  const size_t cls = static_cast<size_t>(priority);
  const size_t interactive =
      static_cast<size_t>(RequestPriority::kInteractive);
  std::unique_lock<std::mutex> lock(mutex_);
  // A batch request never takes a freed slot past a waiting interactive
  // request — the admission-level mirror of the scheduler's priority
  // contract.
  if (in_flight_ < options_.max_in_flight &&
      (!batch || queued_[interactive] == 0)) {
    ++in_flight_;
    return Status::OK();
  }
  size_t budget = batch ? batch_queue_limit() : options_.max_queue;
  if (queued_[cls] >= budget) {
    return Status::ResourceExhausted(
        std::string(batch ? "batch " : "") + "admission queue full (" +
        std::to_string(in_flight_) + " in flight, " +
        std::to_string(queued_[cls]) + " queued)");
  }
  ++queued_[cls];
  while (in_flight_ >= options_.max_in_flight ||
         (batch && queued_[interactive] > 0)) {
    if (cancel != nullptr && cancel->cancelled()) {
      --queued_[cls];
      return Status::Cancelled("request cancelled while queued");
    }
    if (deadline.Expired()) {
      --queued_[cls];
      return Status::DeadlineExceeded("deadline exceeded while queued");
    }
    // Bounded wait: a release notifies, but cancellation and deadlines
    // have no notification channel, so poll them a few times per tick.
    double wait = std::clamp(deadline.RemainingSeconds(), 0.0, 0.005);
    cv_.wait_for(lock, std::chrono::duration<double>(wait));
  }
  --queued_[cls];
  ++in_flight_;
  return Status::OK();
}

void RequestPipeline::Release() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
  }
  // notify_all, not notify_one: with two waiter classes a single wake
  // could land on a batch waiter that must keep yielding to a queued
  // interactive waiter.
  cv_.notify_all();
}

}  // namespace comparesets
