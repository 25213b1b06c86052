// Guest-kernel scheduling: per-CPU run queues (CFS-lite vruntime order), thread
// dispatch, wakeup/fork placement, idle pull and periodic balancing — every placement
// decision consults the vScale cpu_freeze_mask, mirroring how the paper hooks
// find_idlest_cpu() / idle_balance() / update_group_power().

#include <algorithm>
#include <cassert>

#include "src/base/trace.h"
#include "src/guest/kernel.h"
#include "src/obs/stall_accounting.h"

namespace vscale {

namespace {
// Pull threshold: balance when busiest has this many more runnable threads.
constexpr int kImbalanceThreshold = 2;
}  // namespace

GuestThread& GuestKernel::Spawn(const std::string& name, ThreadBody* body,
                                ThreadType type, int pinned_cpu) {
  const int id = static_cast<int>(threads_.size());
  threads_.push_back(std::make_unique<GuestThread>(id, name, type, body));
  GuestThread& t = *threads_.back();
  if (pinned_cpu >= 0) {
    t.set_pinned_cpu(pinned_cpu);
    t.cpu = pinned_cpu;
  }
  if (body == nullptr) {
    // Boot-time kthreads with no workload stay blocked (quiescent servants).
    // vslint: allow(stall-hook, spawn-time init before any vCPU runs; stall attribution starts at the hooked hv dispatch sites)
    t.state = ThreadState::kBlocked;
    return t;
  }
  // vslint: allow(stall-hook, spawn-time init before any vCPU runs; stall attribution starts at the hooked hv dispatch sites)
  t.state = ThreadState::kBlocked;
  t.op_active = false;
  // Fork balancing: first op is fetched when the thread first runs.
  FetchNextOp(t);
  WakeThread(t);
  return t;
}

// ---------------------------------------------------------------------------
// Run queues
// ---------------------------------------------------------------------------

void GuestKernel::EnqueueThread(GuestCpu& c, GuestThread& t) {
  assert(t.state != ThreadState::kRunning);
  // vslint: allow(stall-hook, guest thread-level transition; per-vCPU stall buckets are charged at the hooked hv RunOn/Desched/Wake sites)
  t.state = ThreadState::kRunnable;
  t.cpu = c.id;
  t.enqueued_at = sim_.Now();
  if (t.rt) {
    // RT class: ahead of every fair thread, FIFO among RT.
    auto pos = c.runq.begin();
    while (pos != c.runq.end() && (*pos)->rt) {
      ++pos;
    }
    c.runq.insert(pos, &t);
    return;
  }
  // Wakeup vruntime normalization: don't let long sleepers starve the queue.
  t.vruntime = std::max(t.vruntime, c.min_vruntime - kWakeupGranularity);
  auto pos = c.runq.begin();
  while (pos != c.runq.end() && ((*pos)->rt || (*pos)->vruntime <= t.vruntime)) {
    ++pos;
  }
  c.runq.insert(pos, &t);
}

void GuestKernel::DequeueThread(GuestCpu& c, GuestThread& t) {
  auto it = std::find(c.runq.begin(), c.runq.end(), &t);
  assert(it != c.runq.end());
  c.runq.erase(it);
}

GuestThread* GuestKernel::PickNextThread(GuestCpu& c) {
  if (c.runq.empty()) {
    return nullptr;
  }
  GuestThread* t = c.runq.front();
  c.runq.erase(c.runq.begin());
  return t;
}

void GuestKernel::DispatchNext(GuestCpu& c) {
  assert(c.current == nullptr);
  GuestThread* t = PickNextThread(c);
  if (t == nullptr) {
    return;
  }
  // vslint: allow(stall-hook, guest thread-level transition; per-vCPU stall buckets are charged at the hooked hv RunOn/Desched/Wake sites)
  t->state = ThreadState::kRunning;
  t->cpu = c.id;
  t->wait_time += sim_.Now() - t->enqueued_at;
  c.current = t;
  c.current_started = sim_.Now();
  c.min_vruntime = std::max(c.min_vruntime, t->vruntime);
  c.pending_kernel_ns += cost_.guest_context_switch;
  ++c.stats.guest_switches;
  ArmTickIfNeeded(c);
}

void GuestKernel::PutCurrent(GuestCpu& c, ThreadState new_state) {
  GuestThread* t = c.current;
  assert(t != nullptr);
  c.current = nullptr;
  // vslint: allow(stall-hook, guest thread-level transition; per-vCPU stall buckets are charged at the hooked hv RunOn/Desched/Wake sites)
  t->state = new_state;
  if (new_state == ThreadState::kRunnable) {
    EnqueueThread(c, *t);
  }
}

// ---------------------------------------------------------------------------
// Wakeups and placement
// ---------------------------------------------------------------------------

int GuestKernel::SelectTaskRq(const GuestThread& t) {
  if (t.pinned_cpu() >= 0) {
    return t.pinned_cpu();
  }
  // Prefer the previous CPU when it is online and idle (cache affinity).
  if (t.cpu >= 0) {
    const GuestCpu& prev = cpus_[static_cast<size_t>(t.cpu)];
    if (!prev.frozen && !prev.evacuate_pending && prev.load() == 0) {
      return prev.id;
    }
  }
  // find_idlest_cpu() over online CPUs; push-based selection is forbidden onto frozen
  // vCPUs (cpu_freeze_mask). The scan start rotates so equal-load ties spread instead
  // of piling onto CPU 0.
  int best = -1;
  int best_load = 0;
  const int n = static_cast<int>(cpus_.size());
  rq_scan_start_ = (rq_scan_start_ + 1) % n;
  for (int i = 0; i < n; ++i) {
    const GuestCpu& c = cpus_[static_cast<size_t>((rq_scan_start_ + i) % n)];
    if (c.frozen || c.evacuate_pending) {
      continue;
    }
    const int load = c.load();
    if (best < 0 || load < best_load) {
      best = c.id;
      best_load = load;
    }
  }
  assert(best >= 0 && "at least one vCPU must remain online");
  return best;
}

void GuestKernel::SendReschedIpi(int from_cpu, int to_cpu, EvtchnPort port) {
  VSCALE_TRACE_INSTANT_ARG(sim_.observers(), sim_.Now(), TraceCategory::kGuest,
                           "ipi_send", domain_.id(), from_cpu, -1, "to", to_cpu);
  if (port == kPortResched || port == kPortFreeze) {
    // Timer wakeups ride the same helper but are not IPIs; only scheduler
    // kicks feed the send->delivery latency histogram.
    VS_OBSERVE(sim_.observers(), stall, OnIpiSent(domain_.id(), to_cpu, sim_.Now()));
  }
  NotifyVcpu(to_cpu, port, /*urgent=*/false);
}

void GuestKernel::WakeThread(GuestThread& t, EvtchnPort wake_port) {
  assert(t.state == ThreadState::kBlocked);
  ++t.wakeups;
  const int from_cpu = t.cpu;
  const int dest = SelectTaskRq(t);
  GuestCpu& c = cpus_[static_cast<size_t>(dest)];
  if (dest != from_cpu && from_cpu >= 0) {
    ++t.migrations;
  }
  EnqueueThread(c, t);
  VSCALE_TRACE_INSTANT_ARG(sim_.observers(), sim_.Now(), TraceCategory::kGuest,
                           "thread_wake", domain_.id(), dest, -1, "thread", t.id());
  // Remote enqueue notifies the destination CPU with a reschedule IPI; a wake onto the
  // CPU the waker itself runs on needs none (the local scheduler will see it).
  // We treat any wake that lands on a CPU that is not currently executing guest code
  // on our behalf as remote. The destination may be:
  //  * idle-blocked at the hypervisor  -> the IPI unblocks it (BOOST path);
  //  * preempted (runnable)            -> the IPI sits pending: the wakeup DELAY the
  //                                       paper's Figure 1(b) describes;
  //  * running                         -> delivered immediately, preemption check.
  if (c.current == nullptr && !c.hv_running) {
    SendReschedIpi(from_cpu, dest, wake_port);
  } else if (c.current == nullptr && c.hv_running) {
    // The vCPU is running but between threads (in its own deadline flow): nudge it.
    TouchVcpu(c);
  } else {
    SendReschedIpi(from_cpu, dest, wake_port);
  }
}

// ---------------------------------------------------------------------------
// Load balancing
// ---------------------------------------------------------------------------

void GuestKernel::MigrateThread(GuestThread& t, GuestCpu& from, GuestCpu& to) {
  DequeueThread(from, t);
  ++t.migrations;
  EnqueueThread(to, t);
}

void GuestKernel::PeriodicBalance(GuestCpu& c) {
  if (c.frozen || c.evacuate_pending) {
    return;
  }
  // Pull: find the busiest online CPU and take one migratable thread if the imbalance
  // exceeds the threshold (scheduling-group power is uniform across online CPUs).
  GuestCpu* busiest = nullptr;
  for (auto& other : cpus_) {
    if (other.id == c.id || other.frozen) {
      continue;
    }
    if (busiest == nullptr || other.load() > busiest->load()) {
      busiest = &other;
    }
  }
  if (busiest != nullptr &&
      busiest->load() - c.load() >= kImbalanceThreshold) {
    for (auto it = busiest->runq.rbegin(); it != busiest->runq.rend(); ++it) {
      GuestThread* t = *it;
      if (t->migratable()) {
        MigrateThread(*t, *busiest, c);
        c.pending_kernel_ns += Microseconds(1);
        return;
      }
    }
  }
  // Push (NOHZ idle balance): tickless-idle CPUs run no ticks of their own, so busy
  // CPUs balance on their behalf — without this, an unfrozen vCPU hosting no blocking
  // threads would stay empty forever.
  GuestCpu* idlest = nullptr;
  for (auto& other : cpus_) {
    if (other.id == c.id || other.frozen || other.evacuate_pending) {
      continue;
    }
    if (idlest == nullptr || other.load() < idlest->load()) {
      idlest = &other;
    }
  }
  if (idlest == nullptr ||
      c.load() - idlest->load() < kImbalanceThreshold) {
    return;
  }
  for (auto it = c.runq.rbegin(); it != c.runq.rend(); ++it) {
    GuestThread* t = *it;
    if (t->migratable()) {
      GuestCpu& dest = *idlest;
      MigrateThread(*t, c, dest);
      c.pending_kernel_ns += Microseconds(1);
      if (dest.current == nullptr && !dest.hv_running) {
        SendReschedIpi(c.id, dest.id);
      } else if (dest.current == nullptr) {
        TouchVcpu(dest);
      }
      return;
    }
  }
}

void GuestKernel::IdleBalance(GuestCpu& c) {
  // Pull-based balancing is disabled on frozen vCPUs (Algorithm 2, target op (b)).
  if (c.frozen || c.evacuate_pending) {
    return;
  }
  GuestCpu* busiest = nullptr;
  for (auto& other : cpus_) {
    if (other.id == c.id) {
      continue;
    }
    // Steal from any CPU with waiting threads — including frozen ones mid-drain.
    if (other.runq.empty()) {
      continue;
    }
    if (busiest == nullptr || other.load() > busiest->load()) {
      busiest = &other;
    }
  }
  if (busiest == nullptr) {
    return;
  }
  for (auto it = busiest->runq.rbegin(); it != busiest->runq.rend(); ++it) {
    GuestThread* t = *it;
    if (t->migratable()) {
      MigrateThread(*t, *busiest, c);
      c.pending_kernel_ns += Microseconds(1);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Sync object factories
// ---------------------------------------------------------------------------

int GuestKernel::CreateSpinFlag() {
  spin_flags_.emplace_back();
  return static_cast<int>(spin_flags_.size()) - 1;
}

int GuestKernel::CreateBarrier(int parties, TimeNs spin_budget_ns) {
  GompBarrier b;
  b.parties = parties;
  b.spin_budget_ns = spin_budget_ns;
  b.kernel_lock = CreateKernelLock();
  barriers_.push_back(b);
  return static_cast<int>(barriers_.size()) - 1;
}

int GuestKernel::CreateMutex() {
  AppMutex m;
  m.kernel_lock = CreateKernelLock();
  mutexes_.push_back(m);
  return static_cast<int>(mutexes_.size()) - 1;
}

int GuestKernel::CreateCond() {
  AppCond cv;
  cv.kernel_lock = CreateKernelLock();
  conds_.push_back(cv);
  return static_cast<int>(conds_.size()) - 1;
}

int GuestKernel::CreateKernelLock() {
  kernel_locks_.emplace_back();
  return static_cast<int>(kernel_locks_.size()) - 1;
}

}  // namespace vscale
