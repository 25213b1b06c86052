// A timer is owned through Simulator::Timer, the move-only handle AddTimer
// returns, which disarms the timer when destroyed. The timer's index in the
// lane is private to the engine, so no class can store one that nothing
// disarms. See check.cmake for how this file is built.
// expect-error: TimerId.*(is private within this context|is a private member)

#include "src/sim/event_queue.h"

namespace vscale {

class RebalanceTicker {
 public:
  explicit RebalanceTicker(Simulator& sim) : tick_(sim.AddTimer([] {})) {}
  void Start(TimeNs when) { tick_.Arm(when); }

 private:
  Simulator::Timer tick_;
#ifdef VSCALE_PLANT
  Simulator::TimerId orphan_ = 0;
#endif
};

}  // namespace vscale
