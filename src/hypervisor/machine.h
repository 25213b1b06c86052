// Machine: the simulated physical host — pCPU pool plus a Xen credit1-style scheduler
// and the hypercall surface (HvServices) guests program against.
//
// Scheduling model (mirrors Xen's sched_credit.c):
//  * per-pCPU run queues ordered BOOST > UNDER > OVER, FIFO within a priority;
//  * 30 ms scheduling slice, 10 ms ticks that refresh priorities and check preemption;
//  * 30 ms accounting that distributes credits to domains proportionally to their
//    per-domain weight, split across *active* (non-frozen) vCPUs — the vScale patch;
//  * BOOST for vCPUs woken from block by an event (I/O or virtual IPI);
//  * work-conserving idle stealing across the pool;
//  * a wakeup ratelimit: a vCPU that just started running is not preempted for
//    hv_ratelimit ns, matching Xen's sched_ratelimit_us.
//
// Co-simulation: each RUNNING vCPU has exactly one armed advance timer (a
// Simulator timer-lane entry registered per vCPU in CreateDomain), due at
// min(guest-internal boundary, slice end), and no other vCPU has one armed. All
// state changes settle elapsed time first (SettleRunning), then re-arm the
// timer at the recomputed deadline. See guest_os.h for the contract.
//
// Run state: RunOn, DescheduleCurrent and WakeVcpu are the only transitions,
// and each goes through Vcpu::SetState, the state's one writer, which reports
// it to the stall accountant and the `run` trace slice.

#ifndef VSCALE_SRC_HYPERVISOR_MACHINE_H_
#define VSCALE_SRC_HYPERVISOR_MACHINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/cost_model.h"
#include "src/base/rng.h"
#include "src/base/small_vector.h"
#include "src/base/time.h"
#include "src/hypervisor/domain.h"
#include "src/hypervisor/guest_os.h"
#include "src/hypervisor/hv_services.h"
#include "src/hypervisor/types.h"
#include "src/sim/event_queue.h"

namespace vscale {

struct MachineConfig {
  int n_pcpus = 4;
  uint64_t seed = 1;
  // Wake placement when no pCPU idles: false = stay on v->processor (sticky);
  // true = pick the shallowest run queue (csched_cpu_pick-style spreading). Spreading
  // lets bursty VMs' BOOST wakeups displace busy vCPUs anywhere — the source of the
  // scheduling delays consolidated SMP guests suffer.
  bool wake_spreads_load = true;
  // When false (stock Xen 4.5), weight is per-vCPU: a domain's entitlement scales with
  // its active vCPU count, which penalizes freezing (the unfairness vScale's patch
  // fixes, paper section 4.2). When true (vScale), weight is per-domain.
  bool per_domain_weight = true;

  // --- adversarial hardening (docs/ADVERSARIAL.md); both default OFF so stock
  // behaviour — and every digest-gated scenario — stays bit-identical ---
  // Classify accounting activity from consumed-time samples only: a domain is
  // active iff it accrued CPU or runnable-wait time this accounting window (no
  // instantaneous runnable-state scan), and an idle domain's credit refills at
  // its weight-fair rate instead of snapping to +period. Closes the
  // tick-evader's free top-up.
  bool acct_time_based = false;
  // Max BOOST grants per vCPU per accounting period; 0 = unlimited (stock).
  // Over-budget wakeups still queue, at UNDER instead of BOOST — starving the
  // boost-abuser's preemption storm.
  int boost_budget = 0;

  // Where this run's observations go (src/base/observers.h); all null = none.
  // The Machine's Simulator carries the value for every layer's hooks.
  Observers observers;
};

class Machine : public HvServices {
 public:
  explicit Machine(MachineConfig config);
  ~Machine() override;

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  // The run's observers (MachineConfig::observers, carried by the Simulator).
  const Observers& observers() const { return sim_.observers(); }
  const MachineConfig& config() const { return config_; }
  // The calibrated cost model (DefaultCostModel()), the one every layer reads.
  const CostModel& cost() const { return cost_; }

  // Creates a domain; the caller attaches a GuestOs before starting vCPUs.
  Domain& CreateDomain(const std::string& name, int weight, int n_vcpus);
  int n_domains() const { return static_cast<int>(domains_.size()); }
  Domain& domain(DomainId id) { return *domains_[static_cast<size_t>(id)]; }
  const std::vector<std::unique_ptr<Domain>>& domains() const { return domains_; }

  int n_pcpus() const { return static_cast<int>(pcpus_.size()); }

  // Kicks a blocked vCPU into the run queues (used at boot / by tests).
  void StartVcpu(DomainId dom, VcpuId vcpu);

  // --- HvServices (guest-facing hypercall surface) ---
  TimeNs Now() const override { return sim_.Now(); }
  Rng& rng() override { return rng_; }
  void BlockVcpu(DomainId dom, VcpuId vcpu) override;
  void NotifyEvent(DomainId dom, VcpuId target, EvtchnPort port,
                   bool urgent = false) override;
  void YieldVcpu(DomainId dom, VcpuId vcpu) override;
  void PollVcpu(DomainId dom, VcpuId vcpu, EvtchnPort port) override;
  void NotifyFreeze(DomainId dom, VcpuId vcpu, bool frozen) override;
  int ReadExtendability(DomainId dom) override;
  ChannelPayload ReadChannelPayload(DomainId dom) override;
  void VcpuStateChanged(DomainId dom, VcpuId vcpu) override;

  // --- vScale ticker interface (hypervisor-side extension, written by vscale/) ---
  // Per-domain CPU consumed since the last ResetConsumptionWindow().
  TimeNs WindowConsumption(DomainId dom) const;
  // Per-domain runnable-wait (unmet demand) in the same window.
  TimeNs WindowWaited(DomainId dom) const;
  void ResetConsumptionWindow();
  void WriteExtendability(DomainId dom, int n_vcpus, TimeNs ext_ns);

  // --- fault plane: pCPU steal bursts (driven by a FaultInjector transition) ---
  // Marks the highest-id `n` pCPUs as stolen by another pool: their current vCPUs
  // are descheduled and their queues migrate; the scheduler skips stolen pCPUs
  // until the burst ends (n = 0). Clamped to n_pcpus - 1 so the pool never fully
  // vanishes. Deterministic — a plain state change on the virtual clock.
  void SetStolenPcpus(int n);
  int stolen_pcpus() const;
  // Aggregate pCPU-time lost to completed steal bursts.
  TimeNs total_stolen_ns() const { return stolen_ns_; }

  // --- statistics ---
  TimeNs PcpuIdleTime(PcpuId p) const { return pcpus_[static_cast<size_t>(p)].total_idle; }
  TimeNs TotalIdleTime() const;
  int64_t context_switches() const { return context_switches_; }
  // BOOST wake telemetry (never digest-absorbed): grants counts every BOOST
  // awarded by WakeVcpu; denials only occur with boost_budget > 0.
  int64_t boost_grants() const { return boost_grants_; }
  int64_t boost_denied() const { return boost_denied_; }

 private:
  // The run queue lives inline in the Pcpu (SmallVector): scanning a queue is
  // the same cache lines as the Pcpu that owns it, and queues only spill to the
  // heap past 8 waiters — deeper than any steady state the testbed produces.
  using RunQueue = SmallVector<Vcpu*, 8>;

  struct Pcpu {
    Vcpu* current = nullptr;  // nullptr = idle
    PcpuId id = -1;
    bool stolen = false;      // temporarily owned by another pool (fault plane)
    RunQueue runq;            // priority buckets flattened: sorted stably by priority
    TimeNs idle_since = 0;
    TimeNs total_idle = 0;
    Simulator::Timer ratelimit_timer;  // armed while a preemption is deferred
    TimeNs stolen_since = 0;
  };

  Vcpu& GetVcpu(DomainId dom, VcpuId vcpu) {
    return domains_[static_cast<size_t>(dom)]->vcpu(vcpu);
  }
  Pcpu& PcpuOf(const Vcpu& v) { return pcpus_[static_cast<size_t>(v.pcpu)]; }

  // Run-queue maintenance. `tickle_idlers` distinguishes wakeups (Xen tickles idle
  // pCPUs) from slice-end requeues (local queue only; idlers pick the vCPU up at
  // their next tick-driven steal) — the latter is a real source of scheduling delay.
  void InsertRunnable(Vcpu& v, bool at_head_of_prio = false, bool tickle_idlers = true);
  void RemoveFromRunq(Vcpu& v);
  Pcpu* FindIdlePcpu();

  // Makes a scheduling decision on an idle-or-vacated pCPU.
  void ScheduleDecision(Pcpu& p);
  Vcpu* PickFromRunq(Pcpu& p);
  Vcpu* StealWork(Pcpu& thief);
  bool Schedulable(const Vcpu& v) const;

  // Puts v on p (v must be runnable and dequeued); installs slice + arms advance.
  void RunOn(Pcpu& p, Vcpu& v);

  // Settles elapsed runtime of a RUNNING vCPU into credits, domain windows and the
  // guest. Idempotent at a given Now().
  void SettleRunning(Vcpu& v);

  // Re-arms the advance timer of a settled, still-running vCPU at its
  // recomputed deadline.
  void RearmAdvance(Vcpu& v);

  // The advance timer's callback: settle, then slice end or the guest boundary.
  void OnAdvance(Vcpu& v);

  // Takes the pCPU away from its current vCPU (already settled), disarms its
  // advance timer and requeues/blocks it.
  void DescheduleCurrent(Pcpu& p, VcpuState new_state, bool requeue_tail = true);

  // Wakes a blocked vCPU (event arrival): BOOST eligibility + insert + tickle.
  void WakeVcpu(Vcpu& v, bool boost_eligible);

  // If v (runnable, queued on p) outranks what p runs, preempt subject to ratelimit.
  void MaybePreempt(Pcpu& p);

  void HvTick();       // every cost.hv_tick_period: priority refresh + preempt checks
  void Accounting();   // every cost.hv_accounting_period: credit distribution

  // Whole-machine scheduler invariant sweep (VSCALE_CHECKED builds only; defined and
  // called under the gate). Read-only: per docs/CHECKING.md it polices
  //  * pCPU/vCPU dispatch consistency (at most one RUNNING vCPU per pCPU, and every
  //    RUNNING vCPU is the `current` of the pCPU it points at);
  //  * the co-simulation contract: a vCPU is RUNNING iff its advance timer is
  //    armed;
  //  * run-queue sanity (entries RUNNABLE, on the right queue, priority-sorted);
  //  * BOOST/UNDER/OVER legality and credit-balance bounds (paper Algorithm 1's
  //    credit flow, clamped to ±accounting period by csched_acct).
  void CheckSchedulerInvariants();

  void DrainPendingPorts(Vcpu& v);

  MachineConfig config_;
  const CostModel& cost_;
  Simulator sim_;
  Rng rng_;
  std::vector<std::unique_ptr<Domain>> domains_;
  std::vector<Pcpu> pcpus_;
  // [global vcpu index] -> ports awaiting delivery. A bucket rarely holds more
  // than one or two ports, so four inline slots keep delivery allocation-free.
  std::vector<SmallVector<EvtchnPort, 4>> pending_ports_;
  std::unique_ptr<PeriodicTask> tick_task_;
  std::unique_ptr<PeriodicTask> acct_task_;
  int64_t context_switches_ = 0;
  TimeNs window_start_ = 0;  // start of the current vScale consumption window
  TimeNs acct_window_start_ = 0;  // start of the current accounting window
  TimeNs stolen_ns_ = 0;     // pCPU-time lost to completed steal bursts
  int64_t boost_grants_ = 0;
  int64_t boost_denied_ = 0;

  // Global vCPU index assignment for pending_ports_.
  int GlobalIndex(const Vcpu& v) const;
  std::vector<int> domain_vcpu_base_;
};

}  // namespace vscale

#endif  // VSCALE_SRC_HYPERVISOR_MACHINE_H_
