// FaultInjector: arms a FaultPlan on the simulation clock and answers the cheap
// site-hook queries (`Active(kind)?`, `Magnitude(kind)?`) the instrumented seams ask
// at their existing decision points. All begin/end transitions are ordinary
// EventQueue events, so a faulted run replays bit-identically; the only randomness a
// fault may consume comes from rng(), forked from the plan seed (vslint holds
// src/faults/ to a stricter standard than the rest of the tree: no allow() escapes).

#ifndef VSCALE_SRC_FAULTS_FAULT_INJECTOR_H_
#define VSCALE_SRC_FAULTS_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/faults/fault_plan.h"
#include "src/sim/event_queue.h"

namespace vscale {

class FaultInjector {
 public:
  FaultInjector(Simulator& sim, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules every plan event's begin/end on the simulator. Call once, before
  // running; events whose start already passed begin immediately.
  void Arm();

  // Site-hook queries. Overlapping events of one kind nest: Active() while any is
  // in its window, Magnitude() is the max over the active ones (deterministic in
  // plan order), falling back to DefaultMagnitude when none sets one.
  bool Active(FaultKind kind) const {
    return active_[static_cast<int>(kind)] > 0;
  }
  int64_t Magnitude(FaultKind kind) const;

  // Applies any active latency-spike fault to a channel-path cost.
  TimeNs PerturbLatency(TimeNs cost) const {
    return Active(FaultKind::kLatencySpike)
               ? cost * Magnitude(FaultKind::kLatencySpike)
               : cost;
  }

  // Deterministic noise source for faults that garble data.
  Rng& rng() { return rng_; }

  const FaultPlan& plan() const { return plan_; }
  int64_t events_started() const { return events_started_; }
  int64_t events_ended() const { return events_ended_; }
  int active_count(FaultKind kind) const {
    return active_[static_cast<int>(kind)];
  }

  // Fired after each begin/end transition (state already updated). The Testbed uses
  // this to drive site hooks that are pushes rather than queries (pCPU steal).
  std::function<void(const FaultEvent&, bool began)> on_transition;

 private:
  void Begin(const FaultEvent& ev);
  void End(const FaultEvent& ev);

  Simulator& sim_;
  FaultPlan plan_;
  Rng rng_;
  bool armed_ = false;
  int active_[kNumFaultKinds] = {};
  int64_t events_started_ = 0;
  int64_t events_ended_ = 0;
};

}  // namespace vscale

#endif  // VSCALE_SRC_FAULTS_FAULT_INJECTOR_H_
