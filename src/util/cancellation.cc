#include "util/cancellation.h"

#include <string>

namespace comparesets {

Status ExecControl::Check(const char* where) const {
  if (iterations != nullptr) {
    iterations->fetch_add(1, std::memory_order_relaxed);
  }
  // Cancellation outranks the deadline: an abandoned request should
  // report kCancelled even if its deadline also ran out meanwhile.
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled(std::string("request cancelled in ") + where);
  }
  if (deadline != nullptr && deadline->Expired()) {
    return Status::DeadlineExceeded(std::string("deadline exceeded in ") +
                                    where);
  }
  return Status::OK();
}

Status CheckLive(const ExecControl& control, const char* where) {
  if (control.cancel != nullptr && control.cancel->cancelled()) {
    return Status::Cancelled(std::string("request cancelled before ") + where);
  }
  if (control.deadline != nullptr && control.deadline->Expired()) {
    return Status::DeadlineExceeded(std::string("deadline exceeded before ") +
                                    where);
  }
  return Status::OK();
}

}  // namespace comparesets
