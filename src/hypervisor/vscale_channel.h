// The vScale channel: a per-VM mailbox between the hypervisor scheduler and the guest
// (paper sections 3, 4.1, Table 1).
//
// The data itself lives in Domain (extendability mailbox + seq/valid-stamp), written
// by the vScale ticker and read through HvServices::ReadChannelPayload. This class
// models the *cost* of the read path — sys_getvscaleinfo (a system call) followed by
// SCHEDOP_getvscaleinfo (a hypercall) — keeps the operation-count statistics the
// Table 1 bench reports, and implements the reader half of the hardening protocol:
// a read whose payload fails the valid-stamp check is a torn read and is rejected;
// a read that fails outright (fault plane) still charges its full cost and counts
// into reads_failed. Site hooks for the fault plane (docs/FAULTS.md):
// kChannelFail / kChannelStale / kChannelGarbled / kLatencySpike.

#ifndef VSCALE_SRC_HYPERVISOR_VSCALE_CHANNEL_H_
#define VSCALE_SRC_HYPERVISOR_VSCALE_CHANNEL_H_

#include <cstdint>

#include "src/base/cost_model.h"
#include "src/base/observers.h"
#include "src/base/time.h"
#include "src/faults/fault_injector.h"
#include "src/hypervisor/hv_services.h"
#include "src/hypervisor/types.h"

namespace vscale {

class VscaleChannel {
 public:
  // `observers` are the reading run's (the coverage map sees torn reads).
  VscaleChannel(HvServices& hv, const CostModel& cost, DomainId dom,
                const Observers& observers = {})
      : hv_(hv), cost_(cost), dom_(dom), observers_(observers) {}

  struct ReadResult {
    bool ok = false;             // false: read failed or payload rejected as torn
    int extendability_nvcpus = 0;
    uint64_t seq = 0;            // writer sequence; the daemon's staleness signal
    TimeNs cost = 0;             // syscall + hypercall — charged even on failure
  };

  // Reads the domain's extendability. The returned cost must be charged to the
  // calling thread by the guest (the daemon does this) whether or not ok is set:
  // a failed syscall still burns its entry/exit and hypercall time.
  ReadResult Read();

  // Optional fault plane; null = no faults (the default, zero-overhead path).
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }

  // Cost breakdown used by the Table 1 bench.
  TimeNs syscall_cost() const { return cost_.channel_syscall; }
  TimeNs hypercall_cost() const { return cost_.channel_hypercall; }

  int64_t reads() const { return reads_; }          // successful reads only
  int64_t reads_failed() const { return reads_failed_; }
  int64_t torn_rejected() const { return torn_rejected_; }
  TimeNs total_cost() const { return total_cost_; }

 private:
  HvServices& hv_;
  const CostModel& cost_;
  DomainId dom_;
  const Observers observers_;
  FaultInjector* faults_ = nullptr;
  int64_t reads_ = 0;
  int64_t reads_failed_ = 0;
  int64_t torn_rejected_ = 0;  // subset of reads_failed_: stamp check caught a tear
  TimeNs total_cost_ = 0;
  // Payload frozen at the start of a kChannelStale window (what the reader keeps
  // seeing while the mailbox appears wedged).
  ChannelPayload stale_copy_;
  bool stale_valid_ = false;
};

}  // namespace vscale

#endif  // VSCALE_SRC_HYPERVISOR_VSCALE_CHANNEL_H_
