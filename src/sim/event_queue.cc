#include "src/sim/event_queue.h"

#include <cassert>
#include <utility>

#include "src/base/check.h"
#include "src/base/trace.h"

namespace vscale {

Simulator::Simulator(Observers observers) : observers_(observers) {
  // Typical steady-state populations are tens of events; reserving avoids the
  // first few growth reallocations without committing real memory.
  heap_.reserve(64);
  free_.reserve(64);
}

void Simulator::CompactHeap() {
  size_t keep = 0;
  for (size_t i = 0; i < heap_.size(); ++i) {
    if (!Stale(heap_[i])) {
      heap_[keep++] = heap_[i];
    }
  }
  heap_.resize(keep);
  // Floyd heapify: O(n), and the result is a valid (when, seq) min-heap no matter
  // the input order, so firing order is untouched.
  for (size_t i = keep / 2; i-- > 0;) {
    SiftDown(i);
  }
}

void Simulator::RunUntil(TimeNs deadline) {
  while (FireNext(deadline)) {
  }
  if (deadline > now_) {
    now_ = deadline;
  }
}

void Simulator::RunUntilIdle(uint64_t max_events) {
  for (uint64_t i = 0; i < max_events; ++i) {
    if (!Step()) {
      return;
    }
  }
}

bool Simulator::RunUntilCondition(const std::function<bool()>& stop, TimeNs deadline) {
  while (true) {
    if (stop()) {
      return true;
    }
    if (!FireNext(deadline)) {
      if (deadline > now_) {
        now_ = deadline;
      }
      return stop();
    }
  }
}

PeriodicTask::PeriodicTask(Simulator& sim, TimeNs period, std::function<void()> fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {}

PeriodicTask::~PeriodicTask() { Stop(); }

void PeriodicTask::Start(TimeNs phase) {
  Stop();
  running_ = true;
  const TimeNs delay = phase >= 0 ? phase : period_;
  pending_ = sim_.ScheduleAfter(delay, [this] { Fire(); });
}

void PeriodicTask::Stop() {
  if (pending_ != Simulator::kInvalidEvent) {
    sim_.Cancel(pending_);
    pending_ = Simulator::kInvalidEvent;
  }
  running_ = false;
}

void PeriodicTask::Fire() {
  pending_ = sim_.ScheduleAfter(period_, [this] { Fire(); });
  fn_();
}

}  // namespace vscale
