// GuestKernel: the Linux-like SMP guest kernel model, one instance per domain.
//
// Implements the hypervisor's GuestOs interface (co-simulation contract) and provides:
//  * per-vCPU run queues with a CFS-lite vruntime scheduler;
//  * SMP load balancing — wakeup/fork placement, idle pull, periodic balance — all
//    consulting the vScale cpu_freeze_mask (paper Algorithm 2 & section 4.1);
//  * 1000 HZ virtual timer ticks with dynamic-tick suppression on idle vCPUs;
//  * reschedule IPIs for remote wakeups, delivered through Xen event channels;
//  * futex-style blocking sync (barriers, mutexes, condvars) whose kernel paths
//    contend on hash-bucket spinlocks (vanilla ticket spin or pv-spinlock);
//  * user-level spinning (OpenMP GOMP_SPINCOUNT, ad-hoc flags);
//  * external I/O interrupt binding and redirection;
//  * the vScale freeze/unfreeze mechanism (Algorithm 2) and the Linux CPU-hotplug
//    baseline (stop_machine) for comparison.

#ifndef VSCALE_SRC_GUEST_KERNEL_H_
#define VSCALE_SRC_GUEST_KERNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/cost_model.h"
#include "src/base/time.h"
#include "src/guest/sync_objects.h"
#include "src/guest/thread.h"
#include "src/hypervisor/domain.h"
#include "src/hypervisor/guest_os.h"
#include "src/hypervisor/hv_services.h"
#include "src/sim/event_queue.h"

namespace vscale {

class FaultInjector;
struct FaultEvent;

// Event-channel port conventions within a domain.
inline constexpr EvtchnPort kPortResched = 0;     // reschedule IPI
inline constexpr EvtchnPort kPortFreeze = 1;      // vScale freeze/unfreeze IPI (urgent)
inline constexpr EvtchnPort kPortPvlockKick = 2;  // pv-spinlock kick
inline constexpr EvtchnPort kPortTimer = 3;       // one-shot timer wakeup
inline constexpr EvtchnPort kPortIoBase = 16;     // external devices bind from here

struct GuestConfig {
  bool pv_spinlock = false;

  // --- delivery hardening (docs/FAULTS.md) ---
  // All default-off: each one changes event timing, so the stock kernel must
  // not schedule or absorb anything extra. The Testbed mirrors these from
  // HardeningConfig so scenarios arm them uniformly.
  //
  // Absorb a resched/freeze IPI identical in (port, now) to the previous
  // delivery on the same vCPU: back-to-back duplicates are idempotent no-ops
  // instead of charging ipi_deliver_cost again.
  bool ipi_dedup = false;
  // Quiescence deadline for the freeze handshake: when > 0, FreezeCpu arms a
  // deterministic check that re-sends the freeze IPI (doubling backoff, bounded
  // resends) while the target has not evacuated — a lost kPortFreeze degrades
  // to added latency instead of wedging the freeze forever.
  TimeNs freeze_resend_ns = 0;
  // Periodic-tick rescue of lost resched IPIs: each tick scans for vCPUs that
  // sit hypervisor-blocked with runnable threads queued (the lost-wakeup
  // signature) and re-kicks them, bounding a dropped wakeup at one tick.
  bool tick_rescue = false;
};

// Upper bound on freeze-IPI re-sends per handshake (doubling backoff from
// GuestConfig::freeze_resend_ns: covers ~256x the deadline before giving up).
inline constexpr int kFreezeResendMax = 8;

// CFS wakeup granularity: a queued thread preempts the current one only once its
// vruntime trails by more than this, and a waking sleeper's vruntime is clamped
// to no more than this behind the queue's minimum.
inline constexpr TimeNs kWakeupGranularity = Microseconds(500);

struct GuestCpuStats {
  int64_t timer_ints = 0;
  int64_t resched_ipis = 0;  // received (paper Figs. 10/13, Table 2)
  int64_t io_irqs = 0;
  int64_t guest_switches = 0;
};

// One virtual CPU as the guest sees it.
struct GuestCpu {
  int id = -1;
  GuestThread* current = nullptr;
  std::vector<GuestThread*> runq;   // runnable, not current; min-vruntime order
  TimeNs pending_kernel_ns = 0;     // irq/syscall backlog, consumed before thread work
  TimeNs min_vruntime = 0;
  TimeNs next_tick = kTimeNever;    // absolute; kTimeNever while idle (dynamic ticks)
  TimeNs current_started = 0;       // when `current` was dispatched (slice accounting)
  int ticks_since_balance = 0;
  bool hv_running = false;          // vCPU currently holds a pCPU
  bool frozen = false;              // cpu_freeze_mask bit
  bool evacuate_pending = false;    // freeze requested; migrate everything on next entry
  // ipi_dedup hardening memory: the (time, port) of the last resched/freeze
  // delivery. Written only while the hardening is on, so stock stays untouched.
  TimeNs last_ipi_at = -1;
  EvtchnPort last_ipi_port = -1;
  // freeze_resend hardening: bumped on every Freeze/Unfreeze so an in-flight
  // resend chain from a superseded handshake dies instead of firing stale.
  int64_t freeze_epoch = 0;
  int freeze_resends_left = 0;
  GuestCpuStats stats;

  int load() const {
    return static_cast<int>(runq.size()) + (current != nullptr ? 1 : 0);
  }
};

class GuestKernel : public GuestOs {
 public:
  GuestKernel(HvServices& hv, Simulator& sim, Domain& domain, GuestConfig config);
  ~GuestKernel() override;

  GuestKernel(const GuestKernel&) = delete;
  GuestKernel& operator=(const GuestKernel&) = delete;

  Domain& domain() { return domain_; }
  const CostModel& cost() const { return cost_; }
  int n_cpus() const { return static_cast<int>(cpus_.size()); }
  GuestCpu& cpu(int id) { return cpus_[static_cast<size_t>(id)]; }
  const GuestCpu& cpu(int id) const { return cpus_[static_cast<size_t>(id)]; }
  int online_cpus() const;
  TimeNs NowNs() const { return sim_.Now(); }
  Simulator& sim() { return sim_; }
  // The observers of the run this kernel belongs to (its Simulator's).
  const Observers& observers() const { return sim_.observers(); }

  // --- threads ---
  // Spawns a thread; placement follows fork balancing unless `pinned_cpu` >= 0.
  GuestThread& Spawn(const std::string& name, ThreadBody* body,
                     ThreadType type = ThreadType::kUthread, int pinned_cpu = -1);
  const std::vector<std::unique_ptr<GuestThread>>& threads() const { return threads_; }
  // Aggregate CPU consumed by all threads, the portion burnt busy-waiting, and the
  // time threads spent queued runnable in the guest scheduler (unmet parallelism).
  void TotalThreadTimes(TimeNs* cpu_time, TimeNs* spin_time,
                        TimeNs* wait_time = nullptr) const;
  std::function<void(GuestThread&)> on_thread_exit;

  // --- sync object factories (handles are indices) ---
  int CreateSpinFlag();
  int CreateBarrier(int parties, TimeNs spin_budget_ns);
  int CreateMutex();
  int CreateCond();
  int CreateKernelLock();
  SpinFlag& spin_flag(int id) { return spin_flags_[static_cast<size_t>(id)]; }
  GompBarrier& barrier(int id) { return barriers_[static_cast<size_t>(id)]; }
  AppMutex& mutex(int id) { return mutexes_[static_cast<size_t>(id)]; }
  AppCond& cond(int id) { return conds_[static_cast<size_t>(id)]; }
  KernelLock& kernel_lock(int id) { return kernel_locks_[static_cast<size_t>(id)]; }

  // Raises a user spin flag from *outside* any thread context (device/test code).
  void RaiseSpinFlag(int flag, int64_t value);

  // --- I/O interrupts ---
  // Allocates an I/O event channel bound to cpu0; handler runs in irq context.
  EvtchnPort RegisterIoIrq(std::function<void(int cpu)> handler);
  // Raises the interrupt from device context (routes to the current binding).
  void RaiseIoIrq(EvtchnPort port);
  // Rebinds an irq to another vCPU (hypercall; used on freeze, paper section 4.1).
  void RebindIoIrq(EvtchnPort port, int new_cpu);
  int IoIrqBinding(EvtchnPort port) const;
  // Completes the kIoWait op of a blocked thread (called from irq handlers).
  void CompleteIo(GuestThread& t);

  // --- vScale freeze mechanism (Algorithm 2); policy lives in vscale/ ---
  // Master-side freeze, executed in the context of `master` (vCPU0's daemon). Returns
  // the master-side cost, which the caller charges to the daemon thread.
  TimeNs FreezeCpu(int target);
  TimeNs UnfreezeCpu(int target);
  bool IsFrozen(int cpu) const { return cpus_[static_cast<size_t>(cpu)].frozen; }
  uint64_t freeze_mask() const;

  // --- guest-interior delivery fault domain (docs/FAULTS.md) ---
  // Arms the kIpiDrop/kIpiDup/kIpiDelay/kPortMask site hooks on every
  // intra-domain notification (resched, freeze and timer ports). Null (the
  // default) leaves delivery perfect and the hook provably inert.
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }
  // Harness hook: chain from FaultInjector::on_transition. A closing kPortMask
  // window flushes the coalesced pending bits — one notification per
  // (cpu, port) pair, cpu-id then port order, Xen evtchn semantics.
  void OnFaultTransition(const FaultEvent& ev, bool began);
  // Delivery-fault and hardening counters (digest-absorbed; see docs/FAULTS.md).
  int64_t delivery_drops() const { return delivery_drops_; }
  int64_t delivery_dups() const { return delivery_dups_; }
  int64_t delivery_delays() const { return delivery_delays_; }
  int64_t delivery_coalesced() const { return delivery_coalesced_; }
  int64_t delivery_flushes() const { return delivery_flushes_; }
  int64_t freeze_resends() const { return freeze_resends_; }
  int64_t dup_ipis_ignored() const { return dup_ipis_ignored_; }
  int64_t tick_rescues() const { return tick_rescues_; }

  // --- Linux CPU hotplug baseline (stop_machine; paper section 6 & Fig. 5) ---
  // Removes/adds a vCPU the legacy way: halts every online vCPU for the sampled
  // stop_machine window, then migrates. Returns the modeled latency.
  TimeNs HotplugRemove(int target, TimeNs modeled_latency);
  TimeNs HotplugAdd(int target, TimeNs modeled_latency);

  // --- GuestOs (hypervisor-facing) ---
  void OnScheduledIn(VcpuId vcpu, TimeNs now) override;
  void OnDescheduled(VcpuId vcpu, TimeNs now) override;
  void Advance(VcpuId vcpu, TimeNs elapsed) override;
  TimeNs NextEventDelta(VcpuId vcpu) override;
  void OnDeadline(VcpuId vcpu) override;
  void DeliverEvent(VcpuId vcpu, EvtchnPort port) override;

 private:
  friend class KernelSyncOps;

  // --- dispatch & run queues (kernel_sched.cc) ---
  void EnqueueThread(GuestCpu& c, GuestThread& t);
  void DequeueThread(GuestCpu& c, GuestThread& t);
  GuestThread* PickNextThread(GuestCpu& c);
  // Installs the next thread on c (guest context switch). Safe from any context;
  // caller must TouchVcpu(c) afterwards if not in c's own advance flow.
  void DispatchNext(GuestCpu& c);
  // Stops running `t` on its cpu (requeue or block) and dispatches a successor.
  void PutCurrent(GuestCpu& c, ThreadState new_state);
  // Wakes a blocked thread: placement + remote notification (reschedule IPI by
  // default; timer expiries use the timer port so IPI counters stay faithful).
  void WakeThread(GuestThread& t, EvtchnPort wake_port = kPortResched);
  int SelectTaskRq(const GuestThread& t);
  // Kernel spinlock holders and slow-path waiters run with preemption disabled
  // (spin_lock() = preempt_disable()): the guest scheduler must never requeue them.
  static bool PreemptDisabled(const GuestThread& t) {
    return t.held_lock >= 0 || t.waiting_lock >= 0;
  }
  void PeriodicBalance(GuestCpu& c);
  void IdleBalance(GuestCpu& c);
  void MigrateThread(GuestThread& t, GuestCpu& from, GuestCpu& to);
  void SendReschedIpi(int from_cpu, int to_cpu, EvtchnPort port = kPortResched);
  // The single seam every intra-domain notification crosses: applies the
  // delivery fault domain (mask -> drop -> delay -> dup, in that precedence)
  // before handing the event to the hypervisor. Ports outside the IPI class
  // (pv-lock kicks, I/O irqs) bypass it — their loss is not survivable and
  // real Xen retries them in the slow path, so they stay reliable here.
  void NotifyVcpu(int target, EvtchnPort port, bool urgent);
  static bool FaultablePort(EvtchnPort port) {
    return port == kPortResched || port == kPortFreeze || port == kPortTimer;
  }
  // The urgent freeze-port kick every freeze, unfreeze, resend and hotplug
  // sends to `target`, reported to the stall accountant as an IPI sent.
  void KickFreeze(int target);
  // Arms/extends the freeze_resend_ns quiescence-deadline chain for `target`.
  void ScheduleFreezeResend(int target, TimeNs delay, int64_t epoch);
  // Settles and re-arms the vCPU of cpu `c` after out-of-context state mutation.
  void TouchVcpu(GuestCpu& c);
  void MaybeGoIdle(GuestCpu& c);

  // --- op execution (kernel_sync.cc) ---
  void FetchNextOp(GuestThread& t);
  // Completes the current op and fetches the next one.
  void CompleteOp(GuestThread& t);
  // The running thread finished its compute/spin boundary; advance its op machine.
  void OnThreadBoundary(GuestCpu& c, GuestThread& t);

  void DoBarrierArrive(GuestCpu& c, GuestThread& t);
  void DoMutexLock(GuestCpu& c, GuestThread& t);
  void DoMutexUnlock(GuestCpu& c, GuestThread& t);
  void DoCondWait(GuestCpu& c, GuestThread& t);
  void DoCondSignal(GuestCpu& c, GuestThread& t, bool broadcast);
  void DoSpinFlagWait(GuestCpu& c, GuestThread& t);
  void DoSpinFlagSet(GuestCpu& c, GuestThread& t);
  void DoKernelLockAcquire(GuestCpu& c, GuestThread& t);
  void ReleaseKernelLock(int lock_id, GuestThread& releaser);
  // Grant the lock to `t` (called from releaser context): ends its spin/poll.
  void GrantKernelLock(KernelLock& kl, GuestThread& t);
  // The thread, running, begins the critical section of its kKernelWork op.
  void StartKernelSection(GuestThread& t);

  // Completes an op of a thread that is NOT the caller's execution context: settles
  // the thread's vCPU, mutates, re-arms. Used by barrier release / flag raise.
  void CompleteOpRemote(GuestThread& t);

  // --- ticks & interrupts (kernel.cc) ---
  void HandleTick(GuestCpu& c);
  void ArmTickIfNeeded(GuestCpu& c);
  void HandleReschedIpi(GuestCpu& c);
  void EvacuateCpu(GuestCpu& c);

  // sched_domain/group "power" bookkeeping (updated on freeze; consulted by balance).
  void UpdateGroupPower();

  // Kernel-wide invariant sweep (VSCALE_CHECKED builds only; defined and called under
  // the gate; docs/CHECKING.md). Read-only checks:
  //  * run-queue consistency (entries RUNNABLE on the right CPU, rt-first then
  //    vruntime order; `current` RUNNING; group power matches the freeze mask);
  //  * no migratable runnable thread left on a fully frozen (hv-blocked) vCPU —
  //    the quiescence guarantee of paper Algorithm 2;
  //  * futex wait/wake pairing: wait-queue members are BLOCKED, appear on at most
  //    one queue, lock holders/spinners agree with the locks' own bookkeeping.
  void CheckKernelInvariants();

  HvServices& hv_;
  Simulator& sim_;
  Domain& domain_;
  GuestConfig config_;
  const CostModel& cost_;

  std::vector<GuestCpu> cpus_;
  std::vector<std::unique_ptr<GuestThread>> threads_;

  std::vector<SpinFlag> spin_flags_;
  std::vector<GompBarrier> barriers_;
  std::vector<AppMutex> mutexes_;
  std::vector<AppCond> conds_;
  std::vector<KernelLock> kernel_locks_;

  struct IoIrq {
    int cpu = 0;
    std::function<void(int)> handler;
  };
  std::vector<IoIrq> io_irqs_;  // indexed by port - kPortIoBase

  int total_group_power_ = 0;  // sum of online CPU capacities (1024 each)
  int rq_scan_start_ = 0;      // rotates find_idlest_cpu tie-breaking

  // --- delivery fault domain state ---
  FaultInjector* faults_ = nullptr;       // null: delivery is perfect
  std::vector<uint64_t> masked_pending_;  // per-cpu evtchn pending bits (kPortMask)
  int64_t delivery_drops_ = 0;
  int64_t delivery_dups_ = 0;       // extra deliveries injected
  int64_t delivery_delays_ = 0;
  int64_t delivery_coalesced_ = 0;  // sends absorbed into a masked pending bit
  int64_t delivery_flushes_ = 0;    // coalesced notifications released at window end
  int64_t freeze_resends_ = 0;
  int64_t dup_ipis_ignored_ = 0;
  int64_t tick_rescues_ = 0;
};

}  // namespace vscale

#endif  // VSCALE_SRC_GUEST_KERNEL_H_
