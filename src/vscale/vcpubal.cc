#include "src/vscale/vcpubal.h"

#include <algorithm>
#include <cmath>

namespace vscale {

namespace {
// Polling any faster is pointless when a single reconfiguration can stall the
// guest for tens of milliseconds (the paper's argument for lighter knobs).
constexpr TimeNs kPollPeriod = Seconds(1);
// dom0 is otherwise idle while it monitors.
constexpr Dom0Load kDom0Load = Dom0Load::kIdle;
// Kernel whose hotplug latencies apply: Linux 3.14.15.
constexpr size_t kKernelModelIndex = 2;
}  // namespace

VcpuBalController::VcpuBalController(Machine& machine)
    : machine_(machine),
      toolstack_(machine.cost(), machine.rng().Fork(0xBA1)),
      hotplug_(HotplugKernelModels()[kKernelModelIndex], machine.rng().Fork(0xB01)) {
  task_ = std::make_unique<PeriodicTask>(machine_.sim(), kPollPeriod,
                                         [this] { Poll(); });
}

void VcpuBalController::Manage(GuestKernel& kernel) {
  if (kernel.n_cpus() >= 2) {
    kernels_.push_back(&kernel);
  }
}

void VcpuBalController::Start() { task_->Start(); }

void VcpuBalController::Stop() { task_->Stop(); }

int VcpuBalController::WeightShareTarget(const Domain& d) const {
  // Weight share only — consumption is ignored (not work-conserving).
  int64_t total_weight = 0;
  for (const auto& dom : machine_.domains()) {
    total_weight += dom->weight();
  }
  if (total_weight <= 0) {
    return d.n_vcpus();
  }
  const double share = static_cast<double>(machine_.n_pcpus()) *
                       static_cast<double>(d.weight()) /
                       static_cast<double>(total_weight);
  return std::clamp(static_cast<int>(std::ceil(share)), 1, d.n_vcpus());
}

void VcpuBalController::Poll() {
  // dom0 reads every VM's state through libxl before deciding anything. The cost is
  // dom0 CPU (not charged to the guests), but it bounds how fast the loop can react.
  monitoring_cost_ += toolstack_.SampleMonitorAllVms(
      machine_.n_domains(), kDom0Load);

  for (GuestKernel* kernel : kernels_) {
    const int target = WeightShareTarget(kernel->domain());
    int online = kernel->online_cpus();
    while (online > target) {
      // Remove the highest online vCPU via Linux hotplug: a stop_machine() window
      // stalls every online vCPU of that guest.
      int victim = -1;
      for (int i = kernel->n_cpus() - 1; i >= 1; --i) {
        if (!kernel->IsFrozen(i)) {
          victim = i;
          break;
        }
      }
      if (victim < 0) {
        break;
      }
      const TimeNs latency = hotplug_.SampleRemove();
      kernel->HotplugRemove(victim, latency);
      hotplug_stall_ += latency * online;  // every online vCPU stalls
      ++reconfigurations_;
      --online;
    }
    while (online < target) {
      int candidate = -1;
      for (int i = 1; i < kernel->n_cpus(); ++i) {
        if (kernel->IsFrozen(i)) {
          candidate = i;
          break;
        }
      }
      if (candidate < 0) {
        break;
      }
      const TimeNs latency = hotplug_.SampleAdd();
      kernel->HotplugAdd(candidate, latency);
      hotplug_stall_ += latency;
      ++reconfigurations_;
      ++online;
    }
  }
}

}  // namespace vscale
