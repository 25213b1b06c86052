// VCPU-Bal (Song et al., APSys'13) — the prior system the paper positions vScale
// against (sections 2.3 and 6), implemented as an executable comparator.
//
// VCPU-Bal pioneered dynamic vCPU counts but with the architecture vScale rejects:
//  * a CENTRALIZED controller in dom0 polls every VM through libxl (Figure 4's
//    per-VM ~0.5 ms — worse under dom0 I/O load);
//  * targets consider only the VMs' WEIGHTS, not consumption — not work-conserving:
//    a VM whose neighbours are idle is still pinned to its weight share;
//  * reconfiguration goes through Linux CPU hotplug (Figure 5's milliseconds to
//    >100 ms, with a stop_machine() stall on every online vCPU per removal).
//
// The original authors could only simulate their policy; this class "really runs" it
// against the same hypervisor/guest substrate vScale uses, so bench_comparison_vcpubal
// can put the three systems side by side.

#ifndef VSCALE_SRC_VSCALE_VCPUBAL_H_
#define VSCALE_SRC_VSCALE_VCPUBAL_H_

#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/guest/kernel.h"
#include "src/hypervisor/hotplug_model.h"
#include "src/hypervisor/machine.h"
#include "src/hypervisor/toolstack.h"
#include "src/sim/event_queue.h"

namespace vscale {

class VcpuBalController {
 public:
  explicit VcpuBalController(Machine& machine);

  // Registers a guest the controller manages (UP guests are ignored, like vScale).
  void Manage(GuestKernel& kernel);

  void Start();
  void Stop();

  // One polling pass: read all VMs through libxl, compute weight-share targets,
  // reconfigure via hotplug. Exposed for tests.
  void Poll();

  int64_t reconfigurations() const { return reconfigurations_; }
  // dom0 CPU burnt monitoring (libxl reads).
  TimeNs monitoring_cost() const { return monitoring_cost_; }
  // Guest time destroyed by stop_machine stalls.
  TimeNs hotplug_stall() const { return hotplug_stall_; }

 private:
  int WeightShareTarget(const Domain& d) const;

  Machine& machine_;
  Dom0Toolstack toolstack_;
  HotplugModel hotplug_;
  std::vector<GuestKernel*> kernels_;
  std::unique_ptr<PeriodicTask> task_;
  int64_t reconfigurations_ = 0;
  TimeNs monitoring_cost_ = 0;
  TimeNs hotplug_stall_ = 0;
};

}  // namespace vscale

#endif  // VSCALE_SRC_VSCALE_VCPUBAL_H_
