// The guest-side vScale balancer: decides WHICH vCPUs to (un)freeze to reach the
// target active count and drives the kernel's freeze mechanism (Algorithm 2). The
// mechanism (cpu_freeze_mask, evacuation, IRQ migration) lives in GuestKernel; this is
// the policy layer the daemon instructs. Fault plane: kFreezeFail aborts the batch
// after charging the failed op's syscall entry, kFreezeHang multiplies op cost
// (docs/FAULTS.md); the daemon retries incomplete batches with bounded backoff.

#ifndef VSCALE_SRC_VSCALE_BALANCER_H_
#define VSCALE_SRC_VSCALE_BALANCER_H_

#include <cstdint>

#include "src/base/time.h"
#include "src/faults/fault_injector.h"
#include "src/guest/kernel.h"

namespace vscale {

class VscaleBalancer {
 public:
  explicit VscaleBalancer(GuestKernel& kernel) : kernel_(kernel) {}

  struct ApplyOutcome {
    TimeNs cost = 0;      // master-side cost to charge to the caller
    bool complete = false;  // reached the (clamped) target
  };

  // Freezes/unfreezes vCPUs until exactly `target` are active. vCPU0 (the master) is
  // never frozen; shrink freezes the highest-id active vCPU first, growth unfreezes
  // the lowest-id frozen one. The returned cost must be charged to the caller even
  // when the batch aborts incomplete (a failed op still burned its entry path).
  ApplyOutcome ApplyTarget(int target);

  // Optional fault plane; null = no faults.
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }

  int64_t freezes() const { return freezes_; }
  int64_t unfreezes() const { return unfreezes_; }
  int64_t op_failures() const { return op_failures_; }
  int64_t op_hangs() const { return op_hangs_; }

 private:
  GuestKernel& kernel_;
  FaultInjector* faults_ = nullptr;
  int64_t freezes_ = 0;
  int64_t unfreezes_ = 0;
  int64_t op_failures_ = 0;  // ops aborted by kFreezeFail
  int64_t op_hangs_ = 0;     // ops stretched by kFreezeHang
};

}  // namespace vscale

#endif  // VSCALE_SRC_VSCALE_BALANCER_H_
