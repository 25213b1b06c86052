// A vCPU's run state has one writer, Vcpu::SetState, which reports every
// transition to the stall accountant and the `run` trace slice; the state
// itself is private, so no code can change it without being observed. See
// check.cmake for how this file is built.
// expect-error: state_' (is private within this context|is a private member)

#include "src/hypervisor/domain.h"

namespace vscale {

bool Parked(const Vcpu& v) { return v.state() == VcpuState::kBlocked; }

#ifdef VSCALE_PLANT
void Park(Vcpu& v) { v.state_ = VcpuState::kBlocked; }
#endif

}  // namespace vscale
