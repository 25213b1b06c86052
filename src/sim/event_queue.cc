#include "src/sim/event_queue.h"

#include <utility>

namespace vscale {

Simulator::Simulator(Observers observers) : observers_(observers) {
  // Typical steady-state populations are tens of events; reserving avoids the
  // first few growth reallocations without committing real memory.
  heap_.reserve(64);
  free_.reserve(64);
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
    : sim_(sim),
      period_(period),
      fn_(std::move(fn)),
      timer_(sim_.AddTimer([this] { Fire(); })) {}

void PeriodicTask::Start(TimeNs phase) {
  timer_.Arm(sim_.Now() + (phase >= 0 ? phase : period_));
}

void PeriodicTask::Fire() {
  timer_.Arm(sim_.Now() + period_);
  fn_();
}

}  // namespace vscale
