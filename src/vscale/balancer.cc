#include "src/vscale/balancer.h"

#include <algorithm>

#include "src/base/trace.h"
#include "src/obs/stall_accounting.h"

namespace vscale {

VscaleBalancer::ApplyOutcome VscaleBalancer::ApplyTarget(int target) {
  target = std::clamp(target, 1, kernel_.n_cpus());
  VSCALE_TRACE_INSTANT_ARG(kernel_.observers(), kernel_.NowNs(), TraceCategory::kVscale,
                           "apply_target", kernel_.domain().id(), -1, -1, "target",
                           target);
  VS_OBSERVE(kernel_.observers(), stall, OnApplyTarget(kernel_.domain().id(), target));
  ApplyOutcome out;
  int active = kernel_.online_cpus();
  // A freeze/unfreeze op that the fault plane fails burns its syscall entry before
  // erroring out; the rest of the batch is abandoned (the daemon retries with
  // backoff rather than hammering a failing hotplug path).
  auto op_failed = [&]() {
    if (faults_ != nullptr && faults_->Active(FaultKind::kFreezeFail)) {
      out.cost += kernel_.cost().freeze_syscall;
      ++op_failures_;
      VSCALE_TRACE_INSTANT(kernel_.observers(), kernel_.NowNs(), TraceCategory::kVscale,
                           "freeze_op_fail", kernel_.domain().id(), -1, -1);
      return true;
    }
    return false;
  };
  auto perturb = [&](TimeNs op_cost) {
    if (faults_ != nullptr && faults_->Active(FaultKind::kFreezeHang)) {
      ++op_hangs_;
      return op_cost * std::max<int64_t>(2, faults_->Magnitude(FaultKind::kFreezeHang));
    }
    return op_cost;
  };
  // Shrink: freeze the highest-id active vCPU first (vCPU0 stays).
  while (active > target) {
    int victim = -1;
    for (int i = kernel_.n_cpus() - 1; i >= 1; --i) {
      if (!kernel_.IsFrozen(i)) {
        victim = i;
        break;
      }
    }
    if (victim < 0) {
      break;
    }
    if (op_failed()) {
      out.complete = false;
      return out;
    }
    out.cost += perturb(kernel_.FreezeCpu(victim));
    ++freezes_;
    --active;
  }
  // Grow: unfreeze the lowest-id frozen vCPU first.
  while (active < target) {
    int candidate = -1;
    for (int i = 1; i < kernel_.n_cpus(); ++i) {
      if (kernel_.IsFrozen(i)) {
        candidate = i;
        break;
      }
    }
    if (candidate < 0) {
      break;
    }
    if (op_failed()) {
      out.complete = false;
      return out;
    }
    out.cost += perturb(kernel_.UnfreezeCpu(candidate));
    ++unfreezes_;
    ++active;
  }
  out.complete = active == target;
  return out;
}

}  // namespace vscale
