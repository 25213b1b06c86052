// Domain (VM) and vCPU bookkeeping for the hypervisor scheduler.

#ifndef VSCALE_SRC_HYPERVISOR_DOMAIN_H_
#define VSCALE_SRC_HYPERVISOR_DOMAIN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/time.h"
#include "src/hypervisor/types.h"
#include "src/sim/event_queue.h"

namespace vscale {

class Domain;
class GuestOs;

// Per-vCPU hypervisor state. Owned by its Domain, which stores vCPUs by value in
// one contiguous array (fixed at domain creation, so Vcpu* stay stable).
//
// Field order is deliberate: the members every scheduling decision reads —
// identity, state/priority flags, the settle/slice clocks and the armed advance
// timer — are packed into the leading cache line; lifetime statistics, which only
// reports read, trail behind it.
class Vcpu {
 public:
  Vcpu(Domain* domain, VcpuId id) : domain_(domain), id_(id) {}

  Domain* domain() const { return domain_; }
  VcpuId id() const { return id_; }

  // --- hot: read/written by every dispatch, settle, wake and queue operation ---
  VcpuState state = VcpuState::kBlocked;
  CreditPriority priority = CreditPriority::kUnder;
  bool frozen = false;           // guest marked it frozen (vScale) — stays blocked
  bool polling = false;          // blocked in SCHEDOP_poll on poll_port
  PcpuId pcpu = -1;              // pCPU currently running on, or last ran on
  EvtchnPort poll_port = -1;

  // Credit accounting: entitled-but-unconsumed CPU time. Positive => UNDER.
  TimeNs credit_ns = 0;
  TimeNs slice_end = 0;          // end of the current scheduling slice
  TimeNs run_since = 0;          // when it was last placed on a pCPU
  TimeNs last_settle = 0;        // last time runtime was settled
  TimeNs wait_since = 0;         // when it entered kRunnable

  // Armed exactly while RUNNING (Machine::CreateDomain registers it).
  Simulator::TimerId advance_timer = 0;

  // BOOST grants consumed this accounting period (reset by Accounting); only
  // consulted when MachineConfig::boost_budget > 0.
  int boost_used = 0;

  // --- cold: lifetime statistics, read only when reporting ---
  TimeNs total_runtime = 0;
  TimeNs total_wait = 0;         // time spent runnable-but-not-running (paper Fig. 9)
  TimeNs total_blocked = 0;
  int64_t preemptions = 0;
  int64_t wakeups = 0;

 private:
  Domain* domain_;
  VcpuId id_;
};

// A VM. Weight is per-domain (vScale's Xen 4.5 patch, paper section 4.2) so freezing
// vCPUs never changes the aggregate entitlement.
class Domain {
 public:
  Domain(DomainId id, std::string name, int weight, int n_vcpus);

  DomainId id() const { return id_; }
  const std::string& name() const { return name_; }

  int weight() const { return weight_; }
  void set_weight(int w) { weight_ = w; }

  // Cap on CPU consumption as a fraction of one pCPU (0 = uncapped). E.g. 2.5 means at
  // most 2.5 pCPUs worth of time per accounting period.
  double cap_pcpus() const { return cap_pcpus_; }
  void set_cap_pcpus(double cap) { cap_pcpus_ = cap; }

  int n_vcpus() const { return static_cast<int>(vcpus_.size()); }
  Vcpu& vcpu(VcpuId id) { return vcpus_[static_cast<size_t>(id)]; }
  const Vcpu& vcpu(VcpuId id) const { return vcpus_[static_cast<size_t>(id)]; }

  // Active (credit-earning) vCPUs: not frozen.
  int n_active_vcpus() const;
  // Hypervisor-side view of frozen vCPUs, bit i = vcpu i. The tri-state
  // reconciler (src/vscale/reconciler.cc) cross-checks this against the guest's
  // cpu_freeze_mask to catch a lost/garbled freeze handshake.
  uint64_t hv_freeze_mask() const;

  GuestOs* guest() const { return guest_; }
  void set_guest(GuestOs* guest) { guest_ = guest; }

  // --- vScale channel mailbox (written by the vScale ticker, read via hypercall) ---
  // Extendability expressed as optimal active vCPU count (Algorithm 1 line 11/18).
  int extendability_nvcpus = 0;
  // Raw extendability in ns of CPU per recalculation period (for diagnostics/tests).
  TimeNs extendability_ns = 0;
  // Mailbox write sequence (bumped by every WriteExtendability; 0 = never written)
  // and the matching valid-stamp — the staleness/torn-read protocol the hardened
  // daemon checks (see ChannelPayload in types.h and docs/FAULTS.md).
  uint64_t extendability_seq = 0;
  uint64_t extendability_stamp = 0;

  // --- per-recalc-window consumption tracking (input to Algorithm 1) ---
  TimeNs consumed_in_window = 0;
  // Runnable-but-waiting time in the window: unmet demand. Separating "didn't want"
  // from "couldn't get" keeps contention shortfall from being misread as slack.
  TimeNs waited_in_window = 0;
  // Consumption within the current *accounting* window, for cap enforcement.
  TimeNs consumed_in_acct_window = 0;
  // Runnable-wait accrued within the current accounting window. Input to the
  // time-based activity classification (MachineConfig::acct_time_based);
  // maintained unconditionally, read only when that flag is on.
  TimeNs waited_in_acct_window = 0;
  bool capped_out = false;  // exceeded cap this accounting window; vCPUs parked

  TimeNs TotalRuntime() const;
  TimeNs TotalWait() const;

  // Distribution of individual scheduling-delay episodes (runnable -> running).
  LatencyHistogram wait_histogram;

 private:
  DomainId id_;
  std::string name_;
  int weight_;
  double cap_pcpus_ = 0.0;
  // By value and contiguous: the scheduler's per-domain sweeps (accounting,
  // freeze seeding, window demand) walk vCPUs in order, and the count is fixed
  // at construction so addresses handed out as Vcpu* never move.
  std::vector<Vcpu> vcpus_;
  GuestOs* guest_ = nullptr;
};

}  // namespace vscale

#endif  // VSCALE_SRC_HYPERVISOR_DOMAIN_H_
