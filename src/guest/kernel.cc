// Core of the guest kernel model: construction, the GuestOs co-simulation contract,
// timer ticks, interrupt delivery, idling, the vScale freeze mechanism and the Linux
// hotplug baseline. Scheduling lives in kernel_sched.cc, sync in kernel_sync.cc.

#include "src/guest/kernel.h"

#include <algorithm>
#include <cassert>

#include "src/base/check.h"
#include "src/base/trace.h"
#include "src/faults/fault_injector.h"
#include "src/obs/coverage.h"
#include "src/obs/stall_accounting.h"

namespace vscale {

namespace {
// Periodic load balance every N ticks.
constexpr int kTicksPerBalance = 4;
}  // namespace

GuestKernel::GuestKernel(HvServices& hv, Simulator& sim, Domain& domain,
                         GuestConfig config)
    : hv_(hv),
      sim_(sim),
      domain_(domain),
      config_(config),
      cost_(DefaultCostModel()) {
  cpus_.resize(static_cast<size_t>(domain.n_vcpus()));
  masked_pending_.resize(static_cast<size_t>(domain.n_vcpus()), 0);
  for (int i = 0; i < domain.n_vcpus(); ++i) {
    cpus_[static_cast<size_t>(i)].id = i;
  }
  domain_.set_guest(this);
  UpdateGroupPower();
  // Per-CPU kthreads exist from boot (ksoftirqd); they stay blocked and serve as the
  // non-migratable population of Figure 3. Their work is modeled as pending_kernel_ns.
  for (int i = 0; i < domain.n_vcpus(); ++i) {
    GuestThread& t = Spawn("ksoftirqd/" + std::to_string(i), nullptr,
                           ThreadType::kKthreadPerCpu, i);
    (void)t;
  }
}

GuestKernel::~GuestKernel() = default;

void GuestKernel::TotalThreadTimes(TimeNs* cpu_time, TimeNs* spin_time,
                                   TimeNs* wait_time) const {
  TimeNs cpu = 0;
  TimeNs spin = 0;
  TimeNs wait = 0;
  const TimeNs now = sim_.Now();
  for (const auto& t : threads_) {
    cpu += t->cpu_time;
    spin += t->spin_time;
    wait += t->wait_time;
    if (t->state == ThreadState::kRunnable) {
      wait += now - t->enqueued_at;  // include the in-progress queueing stint
    }
  }
  *cpu_time = cpu;
  *spin_time = spin;
  if (wait_time != nullptr) {
    *wait_time = wait;
  }
}

int GuestKernel::online_cpus() const {
  int n = 0;
  for (const auto& c : cpus_) {
    if (!c.frozen) {
      ++n;
    }
  }
  return n;
}

void GuestKernel::UpdateGroupPower() {
  total_group_power_ = 1024 * std::max(1, online_cpus());
}

uint64_t GuestKernel::freeze_mask() const {
  uint64_t mask = 0;
  for (const auto& c : cpus_) {
    if (c.frozen) {
      mask |= 1ULL << c.id;
    }
  }
  return mask;
}

// ---------------------------------------------------------------------------
// GuestOs: the co-simulation contract
// ---------------------------------------------------------------------------

void GuestKernel::OnScheduledIn(VcpuId vcpu, TimeNs now) {
  GuestCpu& c = cpus_[static_cast<size_t>(vcpu)];
  c.hv_running = true;
  const bool has_work =
      c.current != nullptr || !c.runq.empty() || c.pending_kernel_ns > 0;
  if (has_work) {
    // Coalesced virtual timer tick: at most one pending tick fires on re-entry.
    if (c.next_tick != kTimeNever && c.next_tick <= now) {
      HandleTick(c);
    }
    ArmTickIfNeeded(c);
  }
}

void GuestKernel::OnDescheduled(VcpuId vcpu, TimeNs now) {
  GuestCpu& c = cpus_[static_cast<size_t>(vcpu)];
  (void)now;
  c.hv_running = false;
}

void GuestKernel::Advance(VcpuId vcpu, TimeNs elapsed) {
  GuestCpu& c = cpus_[static_cast<size_t>(vcpu)];
  TimeNs rem = elapsed;
  const TimeNs kernel_take = std::min(c.pending_kernel_ns, rem);
  c.pending_kernel_ns -= kernel_take;
  rem -= kernel_take;
  if (rem <= 0) {
    return;
  }
  GuestThread* t = c.current;
  if (t == nullptr) {
    return;  // idle burn between events; nothing to attribute
  }
  t->cpu_time += rem;
  t->vruntime += rem;
  switch (t->run_mode) {
    case RunMode::kCompute:
      t->remaining_ns = std::max<TimeNs>(0, t->remaining_ns - rem);
      break;
    case RunMode::kUserSpin:
    case RunMode::kKernelSpin:
      t->spin_time += rem;
      if (t->run_mode == RunMode::kKernelSpin) {
        // Reclassify kernel-spin time out of the "running" stall bucket: this
        // is the lock-holder-preemption tax. User spin stays "running" — it is
        // the application's own busy-wait choice, not a virtualization stall.
        VS_OBSERVE(sim_.observers(), stall, OnSpinAdvance(domain_.id(), vcpu, rem));
      }
      if (t->run_mode == RunMode::kKernelSpin && t->waiting_lock >= 0) {
        kernel_locks_[static_cast<size_t>(t->waiting_lock)].total_spin_wait += rem;
      }
      if (t->spin_remaining_ns != kTimeNever) {
        t->spin_remaining_ns = std::max<TimeNs>(0, t->spin_remaining_ns - rem);
      }
      break;
  }
}

TimeNs GuestKernel::NextEventDelta(VcpuId vcpu) {
  GuestCpu& c = cpus_[static_cast<size_t>(vcpu)];
  TimeNs delta = kTimeNever;
  if (c.evacuate_pending) {
    delta = 0;
  } else if (c.pending_kernel_ns > 0) {
    delta = c.pending_kernel_ns;
  } else if (c.current != nullptr) {
    GuestThread& t = *c.current;
    if (t.op_phase < 0) {
      delta = 0;  // op pending start
    } else {
      switch (t.run_mode) {
        case RunMode::kCompute:
          delta = t.remaining_ns;
          break;
        case RunMode::kUserSpin:
        case RunMode::kKernelSpin:
          delta = t.spin_remaining_ns;
          break;
      }
    }
  } else {
    delta = 0;  // dispatch or go idle
  }
  if (c.next_tick != kTimeNever) {
    const TimeNs tick_in = std::max<TimeNs>(0, c.next_tick - sim_.Now());
    delta = std::min(delta, tick_in);
  }
  return delta;
}

void GuestKernel::OnDeadline(VcpuId vcpu) {
  GuestCpu& c = cpus_[static_cast<size_t>(vcpu)];
  const TimeNs now = sim_.Now();
  if (c.next_tick != kTimeNever && now >= c.next_tick) {
    HandleTick(c);
    return;
  }
  if (c.evacuate_pending) {
    EvacuateCpu(c);
    return;
  }
  if (c.pending_kernel_ns > 0) {
    return;  // boundary will arrive when the backlog drains
  }
  if (c.current != nullptr) {
    OnThreadBoundary(c, *c.current);
    return;
  }
  if (!c.runq.empty()) {
    DispatchNext(c);
    return;
  }
  MaybeGoIdle(c);
}

void GuestKernel::DeliverEvent(VcpuId vcpu, EvtchnPort port) {
  GuestCpu& c = cpus_[static_cast<size_t>(vcpu)];
  if (port == kPortResched || port == kPortFreeze) {
    if (config_.ipi_dedup) {
      // Idempotent duplicate handling: a second resched/freeze IPI landing at
      // the same instant on the same port did all its work the first time —
      // absorb it instead of charging ipi_deliver_cost again (kIpiDup, and the
      // back-to-back drain of a stacked pending queue, hit exactly this shape).
      if (c.last_ipi_at == sim_.Now() && c.last_ipi_port == port) {
        ++dup_ipis_ignored_;
        VS_OBSERVE(sim_.observers(), coverage, OnIpiDedup());
        return;
      }
      c.last_ipi_at = sim_.Now();
      c.last_ipi_port = port;
    }
    ++c.stats.resched_ipis;
    c.pending_kernel_ns += cost_.ipi_deliver_cost;
    VSCALE_TRACE_INSTANT_ARG(sim_.observers(), sim_.Now(), TraceCategory::kGuest,
                             "ipi_recv", domain_.id(), c.id, -1, "port", port);
    VS_OBSERVE(sim_.observers(), stall, OnIpiDelivered(domain_.id(), c.id, sim_.Now()));
    HandleReschedIpi(c);
  } else if (port == kPortPvlockKick) {
    // The kicked waiter already owns the lock (granted before the kick); just resume.
    c.pending_kernel_ns += cost_.ipi_deliver_cost;
  } else if (port == kPortTimer) {
    ++c.stats.timer_ints;
    c.pending_kernel_ns += cost_.ipi_deliver_cost;
    HandleReschedIpi(c);  // a timer wakeup behaves like a scheduler tickle
  } else if (port >= kPortIoBase &&
             port - kPortIoBase < static_cast<int>(io_irqs_.size())) {
    ++c.stats.io_irqs;
    c.pending_kernel_ns += cost_.irq_handle_cost;
    VSCALE_TRACE_INSTANT_ARG(sim_.observers(), sim_.Now(), TraceCategory::kGuest,
                             "io_irq", domain_.id(), c.id, -1, "port", port);
    IoIrq& irq = io_irqs_[static_cast<size_t>(port - kPortIoBase)];
    if (irq.handler) {
      irq.handler(c.id);
    }
  }
  ArmTickIfNeeded(c);
}

// ---------------------------------------------------------------------------
// Ticks, interrupts, idling
// ---------------------------------------------------------------------------

void GuestKernel::ArmTickIfNeeded(GuestCpu& c) {
  const bool has_work =
      c.current != nullptr || !c.runq.empty() || c.pending_kernel_ns > 0;
  if (has_work && c.next_tick == kTimeNever) {
    c.next_tick = sim_.Now() + cost_.guest_tick_period;
  }
}

void GuestKernel::HandleTick(GuestCpu& c) {
#if VSCALE_CHECKED
  CheckKernelInvariants();
#endif
  const TimeNs now = sim_.Now();
  ++c.stats.timer_ints;
  c.pending_kernel_ns += cost_.guest_tick_cost;
  c.next_tick = now + cost_.guest_tick_period;
  // Guest-scheduler tick: preempt when the slice is up OR when a queued thread has
  // fallen behind in vruntime (CFS check_preempt_tick). The vruntime check is what
  // keeps co-located busy-waiters from starving the thread they spin on: a spinner
  // accrues vruntime fast and yields within a tick or two.
  if (c.current != nullptr && !c.runq.empty() && !PreemptDisabled(*c.current)) {
    GuestThread* head = c.runq.front();
    const bool slice_up = now - c.current_started >= cost_.guest_sched_slice;
    const bool vr_preempt =
        !c.current->rt &&
        (head->rt ||
         head->vruntime + kWakeupGranularity < c.current->vruntime);
    if (slice_up || vr_preempt) {
      PutCurrent(c, ThreadState::kRunnable);
      DispatchNext(c);
    }
  }
  if (++c.ticks_since_balance >= kTicksPerBalance) {
    c.ticks_since_balance = 0;
    PeriodicBalance(c);
  }
  if (config_.tick_rescue) {
    // Lost-wakeup rescue: a vCPU sitting hypervisor-blocked with runnable
    // threads queued can only mean its wake notification never arrived (the
    // enqueue always precedes the IPI). Re-kick it — through NotifyVcpu, so an
    // active drop window just defers the rescue to the next tick.
    for (auto& other : cpus_) {
      if (other.id == c.id || other.frozen || other.evacuate_pending ||
          other.hv_running || other.current != nullptr || other.runq.empty()) {
        continue;
      }
      const Vcpu& v = domain_.vcpu(other.id);
      if (v.state() != VcpuState::kBlocked || v.polling) {
        continue;
      }
      ++tick_rescues_;
      VS_OBSERVE(sim_.observers(), coverage, OnTickRescue());
      SendReschedIpi(c.id, other.id);
    }
  }
}

void GuestKernel::HandleReschedIpi(GuestCpu& c) {
  if (c.evacuate_pending) {
    EvacuateCpu(c);
    return;
  }
  if (c.current == nullptr) {
    if (!c.runq.empty()) {
      DispatchNext(c);
    }
    return;
  }
  // A pv-yielded spinlock waiter woken by an unrelated event re-enters its poll loop
  // with a fresh spin budget instead of burning the pCPU indefinitely.
  if (c.current->run_mode == RunMode::kKernelSpin &&
      c.current->spin_remaining_ns == kTimeNever && config_.pv_spinlock &&
      c.current->waiting_lock >= 0) {
    c.current->spin_remaining_ns = cost_.pvlock_spin_budget;
  }
  // Remote wakeup preemption check (scheduler_ipi -> resched_curr).
  if (!c.runq.empty() && !PreemptDisabled(*c.current)) {
    GuestThread* head = c.runq.front();
    const bool rt_preempt = head->rt && !c.current->rt;
    if (rt_preempt ||
        head->vruntime + kWakeupGranularity < c.current->vruntime) {
      PutCurrent(c, ThreadState::kRunnable);
      DispatchNext(c);
    }
  }
}

void GuestKernel::MaybeGoIdle(GuestCpu& c) {
  assert(c.current == nullptr && c.runq.empty() && c.pending_kernel_ns == 0);
  if (!c.frozen) {
    IdleBalance(c);
    if (c.current != nullptr || !c.runq.empty()) {
      if (c.current == nullptr) {
        DispatchNext(c);
      }
      return;
    }
  }
  // Dynamic ticks: a truly idle vCPU receives no timer interrupts (paper Table 2).
  c.next_tick = kTimeNever;
  if (StallAccountant* stall = sim_.observers().stall) {
    // Tell the accountant why this vCPU is about to block: futex-blocked if a
    // thread of this CPU sleeps in a barrier/mutex/condvar slow path, idle
    // otherwise. Read-only scan; the hypervisor consumes it at the desched.
    StallBlockReason reason = StallBlockReason::kIdle;
    for (const auto& t : threads_) {
      if (t->cpu == c.id && t->state == ThreadState::kBlocked && t->op_active &&
          t->op_phase == 3 &&
          (t->op.kind == Op::Kind::kBarrierWait ||
           t->op.kind == Op::Kind::kMutexLock ||
           t->op.kind == Op::Kind::kCondWait)) {
        reason = StallBlockReason::kFutex;
        break;
      }
    }
    stall->SetBlockReason(domain_.id(), c.id, reason);
  }
  hv_.BlockVcpu(domain_.id(), c.id);
}

void GuestKernel::TouchVcpu(GuestCpu& c) {
  hv_.VcpuStateChanged(domain_.id(), c.id);
}

// ---------------------------------------------------------------------------
// I/O interrupts
// ---------------------------------------------------------------------------

EvtchnPort GuestKernel::RegisterIoIrq(std::function<void(int)> handler) {
  io_irqs_.push_back(IoIrq{0, std::move(handler)});
  return kPortIoBase + static_cast<EvtchnPort>(io_irqs_.size()) - 1;
}

void GuestKernel::RaiseIoIrq(EvtchnPort port) {
  IoIrq& irq = io_irqs_[static_cast<size_t>(port - kPortIoBase)];
  GuestCpu& bound = cpus_[static_cast<size_t>(irq.cpu)];
  if (bound.frozen || bound.evacuate_pending) {
    // vScale migrates I/O interrupts lazily, when they occur (paper section 4.1).
    int target = 0;
    for (const auto& cand : cpus_) {
      if (!cand.frozen && !cand.evacuate_pending) {
        target = cand.id;
        break;
      }
    }
    RebindIoIrq(port, target);
  }
  hv_.NotifyEvent(domain_.id(), irq.cpu, port, /*urgent=*/false);
}

void GuestKernel::RebindIoIrq(EvtchnPort port, int new_cpu) {
  IoIrq& irq = io_irqs_[static_cast<size_t>(port - kPortIoBase)];
  if (irq.cpu == new_cpu) {
    return;
  }
  irq.cpu = new_cpu;
  // rebind_irq_to_cpu(): one hypercall to change the event channel's vCPU binding.
  cpus_[static_cast<size_t>(new_cpu)].pending_kernel_ns +=
      hv_.rng().UniformTime(cost_.migrate_irq_min, cost_.migrate_irq_max);
}

int GuestKernel::IoIrqBinding(EvtchnPort port) const {
  return io_irqs_[static_cast<size_t>(port - kPortIoBase)].cpu;
}

void GuestKernel::CompleteIo(GuestThread& t) {
  assert(t.op_active && t.op.kind == Op::Kind::kIoWait);
  assert(t.state == ThreadState::kBlocked);
  CompleteOp(t);
  WakeThread(t);
}

// ---------------------------------------------------------------------------
// vScale freeze mechanism (Algorithm 2) — mechanism only; policy in vscale/
// ---------------------------------------------------------------------------

TimeNs GuestKernel::FreezeCpu(int target) {
  GuestCpu& c = cpus_[static_cast<size_t>(target)];
  assert(!c.frozen);
  assert(target != 0 && "vCPU0 (the master) is never frozen");
  VSCALE_TRACE_INSTANT(sim_.observers(), sim_.Now(), TraceCategory::kGuest, "freeze",
                       domain_.id(), target, -1);
  VS_OBSERVE(sim_.observers(), stall,
             OnFreezeRequested(domain_.id(), target, sim_.Now()));
  // Master-side steps, in the order of Algorithm 2 / Table 3:
  // (1)-(2) set cpu_freeze_mask bit; other vCPUs stop pushing tasks here.
  c.frozen = true;
  // (3) update scheduling domain/group power.
  UpdateGroupPower();
  // (4) notify the hypervisor: stop earning credits (SCHEDOP_freezecpu).
  hv_.NotifyFreeze(domain_.id(), target, true);
  // (5) reschedule IPI tickles the target's scheduler to migrate its load.
  c.evacuate_pending = true;
  KickFreeze(target);
  if (config_.freeze_resend_ns > 0) {
    // Quiescence deadline: if the target has not evacuated by then, the freeze
    // IPI was lost — re-send with doubling backoff instead of wedging forever.
    ++c.freeze_epoch;
    c.freeze_resends_left = kFreezeResendMax;
    ScheduleFreezeResend(target, config_.freeze_resend_ns, c.freeze_epoch);
  }
  return cost_.freeze_syscall + cost_.freeze_lock + cost_.freeze_mask_update +
         cost_.freeze_group_power_update + cost_.freeze_hypercall +
         cost_.freeze_resched_ipi;
}

TimeNs GuestKernel::UnfreezeCpu(int target) {
  GuestCpu& c = cpus_[static_cast<size_t>(target)];
  assert(c.frozen);
  VSCALE_TRACE_INSTANT(sim_.observers(), sim_.Now(), TraceCategory::kGuest, "unfreeze",
                       domain_.id(), target, -1);
  c.frozen = false;
  c.evacuate_pending = false;
  UpdateGroupPower();
  hv_.NotifyFreeze(domain_.id(), target, false);
  if (config_.freeze_resend_ns > 0) {
    ++c.freeze_epoch;  // retire any resend chain of the superseded freeze
  }
  // wake_up_idle_cpu(): the target will idle-balance and pull threads over.
  KickFreeze(target);
  return cost_.freeze_syscall + cost_.freeze_lock + cost_.freeze_mask_update +
         cost_.freeze_group_power_update + cost_.freeze_hypercall +
         cost_.freeze_resched_ipi;
}

void GuestKernel::EvacuateCpu(GuestCpu& c) {
  c.evacuate_pending = false;
  // Target-side: activate wake-list threads and iterate the runqueue, migrating every
  // migratable thread; per-CPU kthreads stay (they become quiescent). A current
  // thread inside a kernel critical section cannot be requeued (preemption disabled);
  // it drains away at its next op boundary (see OnThreadBoundary).
  std::vector<GuestThread*> to_move;
  if (c.current != nullptr && c.current->migratable() &&
      !PreemptDisabled(*c.current)) {
    PutCurrent(c, ThreadState::kRunnable);  // re-enters runq of c; collected below
  }
  for (GuestThread* t : c.runq) {
    if (t->migratable()) {
      to_move.push_back(t);
    }
  }
  for (GuestThread* t : to_move) {
    DequeueThread(c, *t);
    const int dest = SelectTaskRq(*t);
    c.pending_kernel_ns +=
        hv_.rng().UniformTime(cost_.migrate_thread_min, cost_.migrate_thread_max);
    GuestCpu& d = cpus_[static_cast<size_t>(dest)];
    t->cpu = dest;
    ++t->migrations;
    EnqueueThread(d, *t);
    if (d.current == nullptr && !d.hv_running) {
      SendReschedIpi(c.id, dest);
    } else if (d.current == nullptr) {
      TouchVcpu(d);
    }
  }
  // Eagerly migrate event channels still bound here so in-flight devices re-route even
  // before their next interrupt fires.
  for (size_t i = 0; i < io_irqs_.size(); ++i) {
    if (io_irqs_[i].cpu == c.id) {
      int target = 0;
      for (const auto& cand : cpus_) {
        if (!cand.frozen && !cand.evacuate_pending) {
          target = cand.id;
          break;
        }
      }
      RebindIoIrq(kPortIoBase + static_cast<EvtchnPort>(i), target);
    }
  }
  // Remaining non-migratable (pinned) uthreads keep the vCPU alive; otherwise it will
  // drain pending work and idle-block, completing the freeze.
  VSCALE_TRACE_INSTANT_ARG(sim_.observers(), sim_.Now(), TraceCategory::kGuest,
                           "evacuate", domain_.id(), c.id, -1, "moved",
                           static_cast<int64_t>(to_move.size()));
}

// ---------------------------------------------------------------------------
// Guest-interior delivery fault domain (docs/FAULTS.md)
// ---------------------------------------------------------------------------

void GuestKernel::NotifyVcpu(int target, EvtchnPort port, bool urgent) {
  if (faults_ != nullptr && FaultablePort(port)) {
    // Any cpu mid-evacuation means a freeze handshake is in flight: a delivery
    // fault landing now is the compound the reconciler/resend hardening exists
    // for, so it gets its own coverage block.
    const auto freeze_in_flight = [this] {
      for (const auto& c : cpus_) {
        if (c.evacuate_pending) {
          return true;
        }
      }
      return false;
    };
    // Precedence, coarse to fine: a masked port coalesces before the
    // notification exists; then loss, then deferral, then duplication.
    if (faults_->Active(FaultKind::kPortMask) &&
        port == static_cast<EvtchnPort>(
                    faults_->Magnitude(FaultKind::kPortMask) - 1)) {
      masked_pending_[static_cast<size_t>(target)] |= 1ULL << port;
      ++delivery_coalesced_;
      if (freeze_in_flight()) {
        VS_OBSERVE(sim_.observers(), coverage,
                   OnDeliveryFaultDuringFreeze(static_cast<int>(FaultKind::kPortMask) -
                                               static_cast<int>(FaultKind::kIpiDrop)));
      }
      VSCALE_TRACE_INSTANT_ARG(sim_.observers(), sim_.Now(), TraceCategory::kGuest,
                               "ipi_masked", domain_.id(), target, -1, "port", port);
      return;
    }
    if (faults_->Active(FaultKind::kIpiDrop)) {
      ++delivery_drops_;
      if (freeze_in_flight()) {
        VS_OBSERVE(sim_.observers(), coverage, OnDeliveryFaultDuringFreeze(0));
      }
      VSCALE_TRACE_INSTANT_ARG(sim_.observers(), sim_.Now(), TraceCategory::kGuest,
                               "ipi_dropped", domain_.id(), target, -1, "port", port);
      return;
    }
    if (faults_->Active(FaultKind::kIpiDelay)) {
      ++delivery_delays_;
      if (freeze_in_flight()) {
        VS_OBSERVE(sim_.observers(), coverage,
                   OnDeliveryFaultDuringFreeze(static_cast<int>(FaultKind::kIpiDelay) -
                                               static_cast<int>(FaultKind::kIpiDrop)));
      }
      const TimeNs delay =
          faults_->Magnitude(FaultKind::kIpiDelay) * cost_.ipi_deliver_cost;
      VSCALE_TRACE_INSTANT_ARG(sim_.observers(), sim_.Now(), TraceCategory::kGuest,
                               "ipi_delayed", domain_.id(), target, -1, "delay_ns",
                               delay);
      const DomainId dom = domain_.id();
      sim_.ScheduleAfter(delay, [this, dom, target, port, urgent] {
        hv_.NotifyEvent(dom, target, port, urgent);
      });
      return;
    }
    if (faults_->Active(FaultKind::kIpiDup)) {
      const int64_t extra = faults_->Magnitude(FaultKind::kIpiDup);
      delivery_dups_ += extra;
      if (freeze_in_flight()) {
        VS_OBSERVE(sim_.observers(), coverage,
                   OnDeliveryFaultDuringFreeze(static_cast<int>(FaultKind::kIpiDup) -
                                               static_cast<int>(FaultKind::kIpiDrop)));
      }
      VSCALE_TRACE_INSTANT_ARG(sim_.observers(), sim_.Now(), TraceCategory::kGuest,
                               "ipi_duped", domain_.id(), target, -1, "extra", extra);
      for (int64_t i = 0; i < extra; ++i) {
        hv_.NotifyEvent(domain_.id(), target, port, urgent);
      }
      // Falls through: the original delivery still happens after the dups.
    }
  }
  hv_.NotifyEvent(domain_.id(), target, port, urgent);
}

void GuestKernel::KickFreeze(int target) {
  VS_OBSERVE(sim_.observers(), stall, OnIpiSent(domain_.id(), target, sim_.Now()));
  NotifyVcpu(target, kPortFreeze, /*urgent=*/true);
}

void GuestKernel::OnFaultTransition(const FaultEvent& ev, bool began) {
  if (ev.kind != FaultKind::kPortMask || began) {
    return;
  }
  // Window closed: each pending bit releases exactly one coalesced
  // notification per (cpu, port) — N masked sends OR into one bit, Xen evtchn
  // semantics. Routed back through NotifyVcpu so an overlapping window
  // re-coalesces deterministically.
  for (auto& c : cpus_) {
    uint64_t bits = masked_pending_[static_cast<size_t>(c.id)];
    masked_pending_[static_cast<size_t>(c.id)] = 0;
    while (bits != 0) {
      const int port = __builtin_ctzll(bits);
      bits &= bits - 1;
      ++delivery_flushes_;
      NotifyVcpu(c.id, static_cast<EvtchnPort>(port),
                 /*urgent=*/port == kPortFreeze);
    }
  }
}

void GuestKernel::ScheduleFreezeResend(int target, TimeNs delay, int64_t epoch) {
  sim_.ScheduleAfter(delay, [this, target, delay, epoch] {
    GuestCpu& c = cpus_[static_cast<size_t>(target)];
    // The chain dies when the handshake completed (evacuation ran), the freeze
    // was superseded (epoch moved), or the resend budget is spent.
    if (c.freeze_epoch != epoch || !c.frozen || !c.evacuate_pending ||
        c.freeze_resends_left <= 0) {
      return;
    }
    --c.freeze_resends_left;
    ++freeze_resends_;
    VS_OBSERVE(sim_.observers(), coverage, OnFreezeResend());
    // The master (vCPU0, daemon context) pays for the repeated kick, exactly
    // like the original freeze_resched_ipi component.
    cpus_[0].pending_kernel_ns += cost_.freeze_resched_ipi;
    VSCALE_TRACE_INSTANT_ARG(sim_.observers(), sim_.Now(), TraceCategory::kGuest,
                             "freeze_resend", domain_.id(), target, -1, "left",
                             static_cast<int64_t>(c.freeze_resends_left));
    KickFreeze(target);
    ScheduleFreezeResend(target, delay * 2, epoch);
  });
}

// ---------------------------------------------------------------------------
// Invariant checking (VSCALE_CHECKED builds; see docs/CHECKING.md)
// ---------------------------------------------------------------------------

#if VSCALE_CHECKED
void GuestKernel::CheckKernelInvariants() {
  // --- run queues & dispatch state ---
  for (const auto& c : cpus_) {
    if (c.current != nullptr) {
      VS_INVARIANT(c.current->state == ThreadState::kRunning,
                   "dom %d cpu %d current thread '%s' in state %d, not RUNNING",
                   domain_.id(), c.id, c.current->name().c_str(),
                   static_cast<int>(c.current->state));
      VS_INVARIANT(c.current->cpu == c.id,
                   "dom %d cpu %d current thread '%s' claims cpu %d", domain_.id(),
                   c.id, c.current->name().c_str(), c.current->cpu);
    }
    bool seen_fair = false;
    TimeNs prev_vruntime = 0;
    for (const GuestThread* t : c.runq) {
      VS_INVARIANT(t->state == ThreadState::kRunnable,
                   "dom %d cpu %d runq holds thread '%s' in state %d, not RUNNABLE",
                   domain_.id(), c.id, t->name().c_str(),
                   static_cast<int>(t->state));
      VS_INVARIANT(t->cpu == c.id,
                   "dom %d cpu %d runq holds thread '%s' whose cpu field says %d",
                   domain_.id(), c.id, t->name().c_str(), t->cpu);
      if (t->rt) {
        VS_INVARIANT(!seen_fair,
                     "dom %d cpu %d runq interleaves RT thread '%s' behind fair "
                     "threads",
                     domain_.id(), c.id, t->name().c_str());
      } else {
        VS_INVARIANT(!seen_fair || t->vruntime >= prev_vruntime,
                     "dom %d cpu %d runq not vruntime-sorted at thread '%s'",
                     domain_.id(), c.id, t->name().c_str());
        seen_fair = true;
        prev_vruntime = t->vruntime;
      }
    }
    // Quiescence (paper Algorithm 2): once a frozen vCPU has drained and idle-blocked
    // at the hypervisor, no migratable work may sit on it — a runnable thread there
    // would never run again (frozen vCPUs take no ticks and no pulls target them).
    const Vcpu& v = domain_.vcpu(c.id);
    if (c.frozen && !c.evacuate_pending && c.current == nullptr &&
        v.state() == VcpuState::kBlocked && !v.polling) {
      for (const GuestThread* t : c.runq) {
        VS_INVARIANT(!t->migratable(),
                     "frozen dom %d cpu %d still queues migratable thread '%s' "
                     "after its evacuation completed",
                     domain_.id(), c.id, t->name().c_str());
      }
    }
  }
  VS_INVARIANT(total_group_power_ == 1024 * std::max(1, online_cpus()),
               "dom %d group power %d disagrees with %d online cpus", domain_.id(),
               total_group_power_, online_cpus());

  // --- futex wait/wake pairing & wait-queue membership ---
  // Every waiter must appear on exactly the queue its op says it waits on, and on at
  // most one queue overall; a lost or doubled wakeup shows up here as a count != 1.
  std::vector<int> queued(threads_.size(), 0);
  auto note = [&](const GuestThread* t) { ++queued[static_cast<size_t>(t->id())]; };
  for (const auto& b : barriers_) {
    VS_INVARIANT(b.arrived >= 0 && b.arrived < b.parties,
                 "dom %d barrier arrived=%d outside [0, %d) — missed release",
                 domain_.id(), b.arrived, b.parties);
    VS_INVARIANT(static_cast<int>(b.spinners.size() + b.sleepers.size()) <=
                     b.parties,
                 "dom %d barrier holds %zu waiters for %d parties", domain_.id(),
                 b.spinners.size() + b.sleepers.size(), b.parties);
    for (const GuestThread* t : b.sleepers) {
      VS_INVARIANT(t->state == ThreadState::kBlocked,
                   "dom %d barrier sleeper '%s' in state %d, not BLOCKED (futex "
                   "wait/wake mismatch)",
                   domain_.id(), t->name().c_str(), static_cast<int>(t->state));
      note(t);
    }
    for (const GuestThread* t : b.spinners) {
      VS_INVARIANT(t->state != ThreadState::kBlocked,
                   "dom %d barrier spinner '%s' is BLOCKED — it can never notice "
                   "the release",
                   domain_.id(), t->name().c_str());
      note(t);
    }
  }
  for (const auto& m : mutexes_) {
    for (const GuestThread* t : m.waiters) {
      VS_INVARIANT(t != m.holder,
                   "dom %d mutex holder '%s' also queued as its own waiter",
                   domain_.id(), t->name().c_str());
      VS_INVARIANT(t->state == ThreadState::kBlocked,
                   "dom %d mutex waiter '%s' in state %d, not BLOCKED (futex "
                   "wait/wake mismatch)",
                   domain_.id(), t->name().c_str(), static_cast<int>(t->state));
      note(t);
    }
  }
  for (const auto& cv : conds_) {
    for (const GuestThread* t : cv.waiters) {
      VS_INVARIANT(t->state == ThreadState::kBlocked,
                   "dom %d condvar waiter '%s' in state %d, not BLOCKED",
                   domain_.id(), t->name().c_str(), static_cast<int>(t->state));
      note(t);
    }
  }
  for (size_t i = 0; i < kernel_locks_.size(); ++i) {
    const KernelLock& kl = kernel_locks_[i];
    if (kl.holder != nullptr) {
      VS_INVARIANT(kl.holder->held_lock == static_cast<int>(i),
                   "dom %d kernel lock %zu held by '%s' whose held_lock says %d",
                   domain_.id(), i, kl.holder->name().c_str(),
                   kl.holder->held_lock);
    }
    for (const GuestThread* t : kl.queue) {
      VS_INVARIANT(t->waiting_lock == static_cast<int>(i),
                   "dom %d kernel lock %zu queues '%s' whose waiting_lock says %d",
                   domain_.id(), i, t->name().c_str(), t->waiting_lock);
      note(t);
    }
  }
  for (const auto& f : spin_flags_) {
    for (const GuestThread* t : f.spinners) {
      note(t);
    }
  }
  for (const auto& t : threads_) {
    VS_INVARIANT(queued[static_cast<size_t>(t->id())] <= 1,
                 "dom %d thread '%s' sits on %d wait queues at once (double "
                 "wait/requeue)",
                 domain_.id(), t->name().c_str(),
                 queued[static_cast<size_t>(t->id())]);
  }
}
#endif  // VSCALE_CHECKED

// ---------------------------------------------------------------------------
// Linux CPU hotplug baseline (stop_machine)
// ---------------------------------------------------------------------------

TimeNs GuestKernel::HotplugRemove(int target, TimeNs modeled_latency) {
  VSCALE_TRACE_INSTANT_ARG(sim_.observers(), sim_.Now(), TraceCategory::kGuest,
                           "hotplug_remove", domain_.id(), target, -1, "latency_ns",
                           modeled_latency);
  // stop_machine(): every online vCPU is halted with interrupts off for the whole
  // window — modeled as kernel backlog injected on each of them.
  for (auto& c : cpus_) {
    if (!c.frozen) {
      c.pending_kernel_ns += modeled_latency;
      if (c.hv_running) {
        TouchVcpu(c);
      }
    }
  }
  GuestCpu& c = cpus_[static_cast<size_t>(target)];
  c.frozen = true;
  VS_OBSERVE(sim_.observers(), stall,
             OnFreezeRequested(domain_.id(), target, sim_.Now()));
  UpdateGroupPower();
  hv_.NotifyFreeze(domain_.id(), target, true);
  c.evacuate_pending = true;
  KickFreeze(target);
  return modeled_latency;
}

TimeNs GuestKernel::HotplugAdd(int target, TimeNs modeled_latency) {
  VSCALE_TRACE_INSTANT_ARG(sim_.observers(), sim_.Now(), TraceCategory::kGuest,
                           "hotplug_add", domain_.id(), target, -1, "latency_ns",
                           modeled_latency);
  GuestCpu& master = cpus_[0];
  master.pending_kernel_ns += modeled_latency;
  if (master.hv_running) {
    TouchVcpu(master);
  }
  GuestCpu& c = cpus_[static_cast<size_t>(target)];
  c.frozen = false;
  c.evacuate_pending = false;
  UpdateGroupPower();
  hv_.NotifyFreeze(domain_.id(), target, false);
  KickFreeze(target);
  return modeled_latency;
}

}  // namespace vscale
