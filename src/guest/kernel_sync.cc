// Synchronization and the thread-op state machine.
//
// Ops start lazily: CompleteOp/FetchNextOp only records the next op (op_phase = -1);
// the op's first action executes when the thread is actually running and reaches a
// boundary. This keeps all sync actions in the context of the executing vCPU, which is
// what makes lock-holder preemption and delayed-IPI effects emerge correctly.
//
// Phase conventions for ops that enter the kernel (futex paths):
//   -1  not started
//    1  spin-waiting on the kernel (hash-bucket) spinlock
//    2  inside the kernel critical section (holds the lock, mode kCompute)
//    3  blocked on the object (futex sleep)
// Barrier arrivals additionally use phase 0 for the user-level spin window.

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/base/check.h"
#include "src/base/trace.h"
#include "src/guest/kernel.h"

namespace vscale {

namespace {
// A sentinel for user-spin budgets that never expire (lu's ad-hoc spinning, ACTIVE
// OpenMP policy — 30 billion iterations is beyond any run length).
constexpr TimeNs kInfiniteSpin = kTimeNever;
}  // namespace

namespace {
// Opt-in per-thread op tracing: VSCALE_TRACE_THREAD=<name substring>.
const char* TraceFilter() {
  static const char* filter = std::getenv("VSCALE_TRACE_THREAD");
  return filter;
}
void Tr(const GuestThread& t, const char* what, TimeNs now) {
  const char* filter = TraceFilter();
  if (filter != nullptr && t.name().find(filter) != std::string::npos) {
    std::fprintf(stderr, "[%.6f] %s %s op=%d phase=%d state=%d\n", now / 1e9,
                 t.name().c_str(), what, (int)t.op.kind, t.op_phase, (int)t.state);
  }
}
}  // namespace

void GuestKernel::FetchNextOp(GuestThread& t) {
  assert(t.body() != nullptr);
  t.op = t.body()->Next(*this, t);
  t.op_phase = -1;
  Tr(t, "fetch", sim_.Now());
  t.op_active = true;
  t.run_mode = RunMode::kCompute;
  t.remaining_ns = 0;
}

void GuestKernel::CompleteOp(GuestThread& t) {
  t.op_active = false;
  FetchNextOp(t);
}

void GuestKernel::BeginOp(GuestThread& t) { FetchNextOp(t); }

// Completes the current op of a thread that is spinning on ANOTHER vCPU (barrier
// release, spin-flag raise, kernel-lock grant): settle that vCPU's elapsed spin first,
// mutate, then re-arm its advance timer.
void GuestKernel::CompleteOpRemote(GuestThread& t) {
  GuestCpu& c = cpus_[static_cast<size_t>(t.cpu)];
  TouchVcpu(c);  // settle spin time up to now
  CompleteOp(t);
  TouchVcpu(c);  // re-arm with the new (pending-start) op
}

// ---------------------------------------------------------------------------
// Boundary dispatch
// ---------------------------------------------------------------------------

void GuestKernel::OnThreadBoundary(GuestCpu& c, GuestThread& t) {
  assert(c.current == &t);
  if (!t.op_active) {
    return;  // spurious boundary after an external completion
  }
  // A thread that rode out a freeze inside a kernel critical section drains off the
  // frozen vCPU at its next preemptible boundary.
  if (c.frozen && t.migratable() && !PreemptDisabled(t) && t.op_phase < 0) {
    PutCurrent(c, ThreadState::kRunnable);
    EvacuateCpu(c);
    DispatchNext(c);
    return;
  }
  if (t.op_phase < 0) {
    // Execute the op's first action.
    switch (t.op.kind) {
      case Op::Kind::kCompute:
        t.op_phase = 0;
        t.run_mode = RunMode::kCompute;
        t.remaining_ns = t.op.duration;
        if (t.remaining_ns == 0) {
          CompleteOp(t);
        }
        return;
      case Op::Kind::kBarrierWait:
        DoBarrierArrive(c, t);
        return;
      case Op::Kind::kMutexLock:
        DoMutexLock(c, t);
        return;
      case Op::Kind::kMutexUnlock:
        DoMutexUnlock(c, t);
        return;
      case Op::Kind::kCondWait:
        DoCondWait(c, t);
        return;
      case Op::Kind::kCondSignal:
        DoCondSignal(c, t, /*broadcast=*/false);
        return;
      case Op::Kind::kCondBroadcast:
        DoCondSignal(c, t, /*broadcast=*/true);
        return;
      case Op::Kind::kSpinFlagWait:
        DoSpinFlagWait(c, t);
        return;
      case Op::Kind::kSpinFlagSet:
        DoSpinFlagSet(c, t);
        return;
      case Op::Kind::kKernelWork:
        t.op_phase = 1;
        DoKernelLockAcquire(c, t);
        return;
      case Op::Kind::kSleep: {
        t.op_phase = 3;
        GuestThread* tp = &t;
        PutCurrent(c, ThreadState::kBlocked);
        sim_.ScheduleAfter(t.op.duration, [this, tp] {
          if (tp->state != ThreadState::kBlocked || !tp->op_active ||
              tp->op.kind != Op::Kind::kSleep) {
            return;
          }
          CompleteOp(*tp);
          // Timer wakeups reach idle vCPUs through the timer event channel.
          WakeThread(*tp, kPortTimer);
        });
        DispatchNext(c);
        return;
      }
      case Op::Kind::kIoWait:
        t.op_phase = 3;
        PutCurrent(c, ThreadState::kBlocked);
        DispatchNext(c);
        return;
      case Op::Kind::kYieldLoop:
        CompleteOp(t);
        return;
      case Op::Kind::kExit: {
        GuestThread* tp = &t;
        PutCurrent(c, ThreadState::kExited);
        tp->op_active = false;
        --live_threads_;
        if (on_thread_exit) {
          on_thread_exit(*tp);
        }
        DispatchNext(c);
        return;
      }
    }
    return;
  }

  // Subsequent boundaries within a started op.
  switch (t.run_mode) {
    case RunMode::kUserSpin:
      if (t.spin_remaining_ns == 0) {
        // Spin budget exhausted: GOMP gives up the CPU via futex (paper section 5.2.2).
        assert(t.op.kind == Op::Kind::kBarrierWait);
        GompBarrier& b = barrier(t.op.obj);
        auto it = std::find(b.spinners.begin(), b.spinners.end(), &t);
        if (it != b.spinners.end()) {
          b.spinners.erase(it);
        }
        t.op_phase = 1;
        DoKernelLockAcquire(c, t);
      }
      return;
    case RunMode::kKernelSpin:
      if (t.spin_remaining_ns == 0) {
        // pv-spinlock slow path: yield the vCPU and wait for the holder's kick.
        assert(config_.pv_spinlock);
        t.spin_remaining_ns = kInfiniteSpin;
        hv_.PollVcpu(domain_.id(), c.id, kPortPvlockKick);
      }
      return;
    case RunMode::kCompute:
      if (t.remaining_ns > 0) {
        return;  // spurious
      }
      if (t.held_lock >= 0 && t.op_phase == 2) {
        // Kernel critical section finished: release the bucket lock, then run the
        // post-section action of the op.
        const int lock_id = t.held_lock;
        ReleaseKernelLock(lock_id, t);
        switch (t.op.kind) {
          case Op::Kind::kBarrierWait: {
            GompBarrier& b = barrier(t.op.obj);
            if (b.generation != t.op.value) {
              CompleteOp(t);  // released while we were entering the futex: abort sleep
              return;
            }
            t.op_phase = 3;
            b.sleepers.push_back(&t);
            PutCurrent(c, ThreadState::kBlocked);
            DispatchNext(c);
            return;
          }
          case Op::Kind::kMutexLock: {
            AppMutex& m = mutex(t.op.obj);
            if (m.holder == nullptr) {
              m.holder = &t;  // raced free: grab it instead of sleeping
              CompleteOp(t);
              return;
            }
            ++m.contended_acquires;
            t.op_phase = 3;
            m.waiters.push_back(&t);
            PutCurrent(c, ThreadState::kBlocked);
            DispatchNext(c);
            return;
          }
          case Op::Kind::kMutexUnlock: {
            AppMutex& m = mutex(t.op.obj);
            assert(m.holder == &t);
            if (m.waiters.empty()) {
              m.holder = nullptr;
            } else {
              GuestThread* w = m.waiters.front();
              m.waiters.pop_front();
              m.holder = w;  // direct handoff: futex wake + acquire
              CompleteOp(*w);
              WakeThread(*w);
            }
            CompleteOp(t);
            return;
          }
          case Op::Kind::kCondWait: {
            // Enqueue on the condvar FIRST, then release the mutex. The handoff
            // synchronously fetches the successor's next op (which may decide a
            // stage-barrier broadcast), so queueing after it would lose wakeups —
            // real futex wait queues the waiter before the mutex is released.
            AppMutex& m = mutex(t.op.obj2);
            assert(m.holder == &t);
            AppCond& cv = cond(t.op.obj);
            assert(std::find(cv.waiters.begin(), cv.waiters.end(), &t) ==
                   cv.waiters.end());
            t.op_phase = 3;
            cv.waiters.push_back(&t);
            PutCurrent(c, ThreadState::kBlocked);
            if (m.waiters.empty()) {
              m.holder = nullptr;
            } else {
              GuestThread* w = m.waiters.front();
              m.waiters.pop_front();
              m.holder = w;
              CompleteOp(*w);
              WakeThread(*w);
            }
            DispatchNext(c);
            return;
          }
          case Op::Kind::kCondSignal:
          case Op::Kind::kCondBroadcast: {
            AppCond& cv = cond(t.op.obj);
            const bool broadcast = t.op.kind == Op::Kind::kCondBroadcast;
            int budget = broadcast ? static_cast<int>(cv.waiters.size()) : 1;
            while (budget-- > 0 && !cv.waiters.empty()) {
              GuestThread* w = cv.waiters.front();
              cv.waiters.pop_front();
              ++cv.signals;
              AppMutex& m = mutex(w->op.obj2);
              if (m.holder == nullptr) {
                m.holder = w;
                CompleteOp(*w);
                WakeThread(*w);
              } else {
                // futex_requeue: move the waiter to the mutex queue; it wakes (and
                // its kCondWait op completes) at the unlock handoff.
                m.waiters.push_back(w);
              }
            }
            CompleteOp(t);
            return;
          }
          case Op::Kind::kKernelWork:
            CompleteOp(t);
            return;
          default:
            assert(false && "unexpected op kind holding a kernel lock");
            return;
        }
      }
      // Plain compute segment (or zero-cost op tail) finished.
      CompleteOp(t);
      return;
  }
}

// ---------------------------------------------------------------------------
// Op start actions
// ---------------------------------------------------------------------------

void GuestKernel::DoBarrierArrive(GuestCpu& c, GuestThread& t) {
  GompBarrier& b = barrier(t.op.obj);
  t.op.value = b.generation;  // remember which generation we wait for
  VS_INVARIANT(b.arrived < b.parties,
               "dom %d thread '%s' arrives at a barrier already holding %d/%d "
               "arrivals — a release was lost",
               domain_.id(), t.name().c_str(), b.arrived, b.parties);
  ++b.arrived;
  if (b.arrived >= b.parties) {
    // Last arrival: release everyone.
    ++b.releases;
    ++b.generation;
    b.arrived = 0;
    // Spinners notice the flipped generation in user space (no kernel involvement).
    std::vector<GuestThread*> spinners;
    spinners.swap(b.spinners);
    // Sleepers need a futex wake; charge the releaser the per-sleeper wake work as
    // kernel backlog, then wake them (each remote wake sends a reschedule IPI).
    if (!b.sleepers.empty()) {
      c.pending_kernel_ns +=
          cost_.futex_wake_cost * static_cast<TimeNs>(b.sleepers.size());
      std::vector<GuestThread*> sleepers(b.sleepers.begin(), b.sleepers.end());
      b.sleepers.clear();
      for (GuestThread* w : sleepers) {
        CompleteOp(*w);
        WakeThread(*w);
      }
    }
    for (GuestThread* w : spinners) {
      CompleteOpRemote(*w);
    }
    CompleteOp(t);
    return;
  }
  // Not last: spin for the budget, then futex.
  if (b.spin_budget_ns > 0) {
    t.op_phase = 0;
    t.run_mode = RunMode::kUserSpin;
    t.spin_remaining_ns = b.spin_budget_ns;
    b.spinners.push_back(&t);
    return;
  }
  // PASSIVE policy: block immediately via the futex path.
  t.op_phase = 1;
  DoKernelLockAcquire(c, t);
}

void GuestKernel::DoMutexLock(GuestCpu& c, GuestThread& t) {
  AppMutex& m = mutex(t.op.obj);
  if (m.holder == nullptr) {
    m.holder = &t;  // user-space fast path
    CompleteOp(t);
    return;
  }
  t.op_phase = 1;
  DoKernelLockAcquire(c, t);
}

void GuestKernel::DoMutexUnlock(GuestCpu& c, GuestThread& t) {
  AppMutex& m = mutex(t.op.obj);
  assert(m.holder == &t && "unlock by non-holder");
  if (m.waiters.empty() && kernel_lock(m.kernel_lock).holder == nullptr &&
      kernel_lock(m.kernel_lock).queue.empty()) {
    // No contention anywhere: user-space fast path.
    m.holder = nullptr;
    CompleteOp(t);
    return;
  }
  t.op_phase = 1;
  DoKernelLockAcquire(c, t);
}

void GuestKernel::DoCondWait(GuestCpu& c, GuestThread& t) {
  assert(mutex(t.op.obj2).holder == &t && "cond wait requires the mutex held");
  t.op_phase = 1;
  DoKernelLockAcquire(c, t);
}

void GuestKernel::DoCondSignal(GuestCpu& c, GuestThread& t, bool broadcast) {
  AppCond& cv = cond(t.op.obj);
  (void)broadcast;
  if (cv.waiters.empty()) {
    CompleteOp(t);  // nothing to wake: user-space check only
    return;
  }
  t.op_phase = 1;
  DoKernelLockAcquire(c, t);
}

void GuestKernel::DoSpinFlagWait(GuestCpu& c, GuestThread& t) {
  (void)c;
  SpinFlag& f = spin_flag(t.op.obj);
  if (f.value >= t.op.value) {
    CompleteOp(t);
    return;
  }
  t.op_phase = 0;
  t.run_mode = RunMode::kUserSpin;
  t.spin_remaining_ns = kInfiniteSpin;  // ad-hoc spinning never blocks
  f.spinners.push_back(&t);
}

void GuestKernel::DoSpinFlagSet(GuestCpu& c, GuestThread& t) {
  (void)c;
  SpinFlag& f = spin_flag(t.op.obj);
  f.value = std::max(f.value, t.op.value);
  // Release satisfied spinners (they notice at their next settle — "immediately" in
  // virtual time if their vCPU is running; when it next runs otherwise).
  std::vector<GuestThread*> released;
  for (auto it = f.spinners.begin(); it != f.spinners.end();) {
    if (f.value >= (*it)->op.value) {
      released.push_back(*it);
      it = f.spinners.erase(it);
    } else {
      ++it;
    }
  }
  CompleteOp(t);
  for (GuestThread* w : released) {
    CompleteOpRemote(*w);
  }
}

void GuestKernel::RaiseSpinFlag(int flag, int64_t value) {
  SpinFlag& f = spin_flag(flag);
  f.value = std::max(f.value, value);
  std::vector<GuestThread*> released;
  for (auto it = f.spinners.begin(); it != f.spinners.end();) {
    if (f.value >= (*it)->op.value) {
      released.push_back(*it);
      it = f.spinners.erase(it);
    } else {
      ++it;
    }
  }
  for (GuestThread* w : released) {
    CompleteOpRemote(*w);
  }
}

// ---------------------------------------------------------------------------
// Kernel spinlocks (ticket order; vanilla spin vs pv spin-then-yield)
// ---------------------------------------------------------------------------

// Which kernel lock guards the current op's kernel phase.
static int KernelLockForOp(GuestKernel& k, GuestThread& t) {
  switch (t.op.kind) {
    case Op::Kind::kBarrierWait:
      return k.barrier(t.op.obj).kernel_lock;
    case Op::Kind::kMutexLock:
    case Op::Kind::kMutexUnlock:
      return k.mutex(t.op.obj).kernel_lock;
    case Op::Kind::kCondWait:
    case Op::Kind::kCondSignal:
    case Op::Kind::kCondBroadcast:
      return k.cond(t.op.obj).kernel_lock;
    case Op::Kind::kKernelWork:
      return t.op.obj;
    default:
      return -1;
  }
}

// Critical-section length once the bucket lock is held.
static TimeNs KernelSectionDuration(const CostModel& cost, GuestKernel& k,
                                    GuestThread& t) {
  switch (t.op.kind) {
    case Op::Kind::kBarrierWait:
    case Op::Kind::kMutexLock:
      return cost.futex_wait_cost;
    case Op::Kind::kMutexUnlock:
    case Op::Kind::kCondSignal:
      return cost.futex_wake_cost;
    case Op::Kind::kCondWait:
      return cost.futex_wait_cost + cost.futex_wake_cost;
    case Op::Kind::kCondBroadcast: {
      const auto n = static_cast<TimeNs>(k.cond(t.op.obj).waiters.size());
      return cost.futex_wake_cost * std::max<TimeNs>(1, n);
    }
    case Op::Kind::kKernelWork:
      return t.op.duration;
    default:
      return 0;
  }
}

void GuestKernel::StartKernelSection(GuestThread& t) {
  t.op_phase = 2;
  t.run_mode = RunMode::kCompute;
  t.remaining_ns = KernelSectionDuration(cost_, *this, t);
  if (t.remaining_ns <= 0) {
    t.remaining_ns = 1;  // ensure forward progress through the boundary machinery
  }
}

void GuestKernel::DoKernelLockAcquire(GuestCpu& c, GuestThread& t) {
  (void)c;
  const int lock_id = KernelLockForOp(*this, t);
  assert(lock_id >= 0);
  KernelLock& kl = kernel_lock(lock_id);
  if (kl.holder == nullptr && kl.queue.empty()) {
    kl.holder = &t;
    t.held_lock = lock_id;
    ++kl.acquisitions;
    StartKernelSection(t);
    return;
  }
  // Contended: ticket queue + busy wait (Figure 1(a) territory). With pv-spinlock the
  // spin is bounded; vanilla 3.14 ticket locks spin forever.
  ++kl.contentions;
  VSCALE_TRACE_INSTANT_ARG(sim_.Now(), TraceCategory::kGuest, "lock_contend",
                           domain_.id(), t.cpu, -1, "lock", lock_id);
  kl.queue.push_back(&t);
  t.waiting_lock = lock_id;
  t.run_mode = RunMode::kKernelSpin;
  t.spin_remaining_ns =
      config_.pv_spinlock ? cost_.pvlock_spin_budget : kInfiniteSpin;
}

void GuestKernel::GrantKernelLock(KernelLock& kl, GuestThread& t) {
  GuestCpu& c = cpus_[static_cast<size_t>(t.cpu)];
  TouchVcpu(c);  // settle the spin time accrued so far
  t.waiting_lock = -1;
  kl.holder = &t;
  const int lock_id = static_cast<int>(&kl - kernel_locks_.data());
  t.held_lock = lock_id;
  ++kl.acquisitions;
  VSCALE_TRACE_INSTANT_ARG(sim_.Now(), TraceCategory::kGuest, "lock_grant",
                           domain_.id(), t.cpu, -1, "lock", lock_id);
  StartKernelSection(t);
  if (config_.pv_spinlock) {
    // Kick the (possibly pv-yielded) waiter's vCPU. Harmless if it never yielded.
    c.pending_kernel_ns += cost_.pvlock_kick_cost;
    hv_.NotifyEvent(domain_.id(), t.cpu, kPortPvlockKick, /*urgent=*/false);
  }
  TouchVcpu(c);
}

void GuestKernel::ReleaseKernelLock(int lock_id, GuestThread& releaser) {
  KernelLock& kl = kernel_lock(lock_id);
  assert(kl.holder == &releaser);
  VS_INVARIANT(kl.holder == &releaser,
               "dom %d kernel lock %d released by '%s' which does not hold it",
               domain_.id(), lock_id, releaser.name().c_str());
  kl.holder = nullptr;
  releaser.held_lock = -1;
  if (!kl.queue.empty()) {
    GuestThread* next = kl.queue.front();
    kl.queue.pop_front();
    GrantKernelLock(kl, *next);
  }
}

void GuestKernel::BlockCurrent(GuestCpu& c, GuestThread& t) {
  assert(c.current == &t);
  VSCALE_TRACE_INSTANT_ARG(sim_.Now(), TraceCategory::kGuest, "thread_block",
                           domain_.id(), c.id, -1, "thread", t.id());
  DispatchNext(c);
}

}  // namespace vscale
