// Interface the hypervisor uses to drive a guest operating system.
//
// The co-simulation contract: while a vCPU runs on a pCPU, the hypervisor keeps its
// one "advance" timer armed at the earliest interesting boundary
// (min(guest-internal event, slice end)), and disarms it when the vCPU stops running.
// Whenever anything happens to the vCPU, the hypervisor settles elapsed time into the
// guest via Advance(), re-asks NextEventDelta() and re-arms the timer. The guest never
// schedules simulator events for its own running vCPUs; it reports boundaries through
// NextEventDelta and reacts in OnDeadline. For non-running vCPUs the guest acts
// through HvServices (wake, IPI, state-changed).

#ifndef VSCALE_SRC_HYPERVISOR_GUEST_OS_H_
#define VSCALE_SRC_HYPERVISOR_GUEST_OS_H_

#include "src/base/time.h"
#include "src/hypervisor/types.h"

namespace vscale {

class GuestOs {
 public:
  virtual ~GuestOs() = default;

  // The vCPU was placed on a pCPU and starts consuming cycles at `now`. Pending virtual
  // interrupts (coalesced timer ticks, queued IPIs, I/O events) should be accepted here;
  // their handling cost is charged to subsequent Advance() time.
  virtual void OnScheduledIn(VcpuId vcpu, TimeNs now) = 0;

  // The vCPU lost its pCPU (preemption, block, or yield) after being settled.
  virtual void OnDescheduled(VcpuId vcpu, TimeNs now) = 0;

  // Consume `elapsed` nanoseconds of CPU on this running vCPU. Must not call back into
  // HvServices scheduling operations (pure accounting).
  virtual void Advance(VcpuId vcpu, TimeNs elapsed) = 0;

  // With the vCPU running from Now(), how long until its next internal boundary
  // (segment completion, spin-budget expiry, guest timer tick, ...)? kTimeNever if it
  // would run forever undisturbed.
  virtual TimeNs NextEventDelta(VcpuId vcpu) = 0;

  // The boundary promised by NextEventDelta arrived (elapsed time already settled via
  // Advance). The guest may block the vCPU, wake others, etc. through HvServices.
  virtual void OnDeadline(VcpuId vcpu) = 0;

  // An event-channel notification (virtual IPI or I/O interrupt) reached this vCPU while
  // it is RUNNING. Elapsed time has been settled. Non-running vCPUs get their events on
  // the next OnScheduledIn.
  virtual void DeliverEvent(VcpuId vcpu, EvtchnPort port) = 0;
};

}  // namespace vscale

#endif  // VSCALE_SRC_HYPERVISOR_GUEST_OS_H_
