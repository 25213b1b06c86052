#include "src/hypervisor/machine.h"

#include <algorithm>
#include <cassert>

#include "src/base/check.h"
#include "src/base/trace.h"
#include "src/obs/coverage.h"
#include "src/obs/stall_accounting.h"

namespace vscale {

Machine::Machine(MachineConfig config)
    : config_(std::move(config)),
      cost_(DefaultCostModel()),
      sim_(config_.observers),
      rng_(config_.seed) {
  pcpus_.resize(static_cast<size_t>(config_.n_pcpus));
  for (int i = 0; i < config_.n_pcpus; ++i) {
    pcpus_[static_cast<size_t>(i)].id = i;
  }
  tick_task_ = std::make_unique<PeriodicTask>(sim_, cost_.hv_tick_period,
                                              [this] { HvTick(); });
  acct_task_ = std::make_unique<PeriodicTask>(sim_, cost_.hv_accounting_period,
                                              [this] { Accounting(); });
  tick_task_->Start();
  acct_task_->Start();
}

Machine::~Machine() = default;

Domain& Machine::CreateDomain(const std::string& name, int weight, int n_vcpus) {
  const DomainId id = static_cast<DomainId>(domains_.size());
  if (VSCALE_TRACE_ACTIVE(sim_.observers())) {
    sim_.observers().tracer->SetDomainName(id, name);
  }
  domains_.push_back(std::make_unique<Domain>(id, name, weight, n_vcpus));
  int base = domain_vcpu_base_.empty()
                 ? 0
                 : domain_vcpu_base_.back() + domains_[domains_.size() - 2]->n_vcpus();
  domain_vcpu_base_.push_back(base);
  pending_ports_.resize(static_cast<size_t>(base + n_vcpus));
  Domain& d = *domains_.back();
  // New vCPUs start blocked with a fresh credit balance so first wakeups boost.
  for (int i = 0; i < n_vcpus; ++i) {
    Vcpu& v = d.vcpu(i);
    v.credit_ns = cost_.hv_accounting_period;
    v.priority = CreditPriority::kUnder;
    v.wait_since = sim_.Now();
    v.advance_timer = sim_.AddTimer([this, &v] { OnAdvance(v); });
    VS_OBSERVE(sim_.observers(), stall, OnVcpuCreated(id, i, sim_.Now()));
  }
  return d;
}

int Machine::GlobalIndex(const Vcpu& v) const {
  return domain_vcpu_base_[static_cast<size_t>(v.domain()->id())] + v.id();
}

void Machine::StartVcpu(DomainId dom, VcpuId vcpu) {
  Vcpu& v = GetVcpu(dom, vcpu);
  if (v.state == VcpuState::kBlocked) {
    WakeVcpu(v, /*boost_eligible=*/false);
  }
}

// ---------------------------------------------------------------------------
// Run-queue maintenance
// ---------------------------------------------------------------------------

void Machine::InsertRunnable(Vcpu& v, bool at_head_of_prio, bool tickle_idlers) {
  assert(v.state == VcpuState::kRunnable);
  Pcpu* p = nullptr;
  if (v.pcpu >= 0) {
    p = &pcpus_[static_cast<size_t>(v.pcpu)];
    if (p->stolen) {
      p = nullptr;  // affinity target lost to a steal burst: place like a fresh wake
    }
  }
  if (p == nullptr || (p->current != nullptr && tickle_idlers)) {
    // Wake placement: an idle pCPU if there is one (Xen tickles idlers), otherwise
    // stay on the previous pCPU (v->processor affinity). Sticky placement is what
    // concentrates queues under load and produces the paper's tens-of-milliseconds
    // scheduling delays.
    if (Pcpu* idle = FindIdlePcpu()) {
      p = idle;
    } else if (p == nullptr || config_.wake_spreads_load) {
      Pcpu* best = p;
      for (auto& cand : pcpus_) {
        if (cand.stolen) {
          continue;
        }
        if (best == nullptr || cand.runq.size() < best->runq.size()) {
          best = &cand;
        }
      }
      p = best;
    }
  }
  v.pcpu = p->id;
  auto& q = p->runq;
  auto pos = q.begin();
  if (at_head_of_prio) {
    while (pos != q.end() && (*pos)->priority < v.priority) {
      ++pos;
    }
  } else {
    while (pos != q.end() && (*pos)->priority <= v.priority) {
      ++pos;
    }
  }
  q.insert(pos, &v);
  if (p->current == nullptr) {
    ScheduleDecision(*p);
  } else {
    MaybePreempt(*p);
  }
}

void Machine::RemoveFromRunq(Vcpu& v) {
  if (v.pcpu < 0) {
    return;
  }
  auto& q = pcpus_[static_cast<size_t>(v.pcpu)].runq;
  auto it = std::find(q.begin(), q.end(), &v);
  if (it != q.end()) {
    q.erase(it);
  }
}

Machine::Pcpu* Machine::FindIdlePcpu() {
  for (auto& p : pcpus_) {
    if (p.current == nullptr && !p.stolen) {
      return &p;
    }
  }
  return nullptr;
}

bool Machine::Schedulable(const Vcpu& v) const {
  // Note: frozen vCPUs stay schedulable — the freeze flag only removes them from the
  // credit distribution (csched_acct). They still need the pCPU briefly to run their
  // evacuation, after which they block voluntarily and never wake until unfrozen.
  return !v.domain()->capped_out;
}

Vcpu* Machine::PickFromRunq(Pcpu& p) {
  for (auto it = p.runq.begin(); it != p.runq.end(); ++it) {
    if (Schedulable(**it)) {
      Vcpu* v = *it;
      p.runq.erase(it);
      return v;
    }
  }
  return nullptr;
}

Vcpu* Machine::StealWork(Pcpu& thief) {
  Vcpu* best = nullptr;
  Pcpu* victim = nullptr;
  for (auto& p : pcpus_) {
    if (p.id == thief.id) {
      continue;
    }
    for (Vcpu* v : p.runq) {
      if (!Schedulable(*v)) {
        continue;
      }
      if (best == nullptr || v->priority < best->priority) {
        best = v;
        victim = &p;
      }
      break;  // runq is priority-sorted; first schedulable is this queue's best
    }
  }
  if (best != nullptr) {
    auto& q = victim->runq;
    q.erase(std::find(q.begin(), q.end(), best));
  }
  return best;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void Machine::ScheduleDecision(Pcpu& p) {
  if (p.current != nullptr || p.stolen) {
    return;
  }
  // Under time-based accounting (docs/ADVERSARIAL.md): local-first dispatch
  // lets a credit-exhausted vCPU win a vacated pCPU while UNDER work sits
  // parked on a busy neighbour — the parking half of the tick-evader and
  // boost-abuser takes. If the best local candidate is OVER, prefer the best
  // better-priority parked vCPU anywhere (global priority order at dispatch).
  if (config_.acct_time_based) {
    Vcpu* local = nullptr;
    for (Vcpu* v : p.runq) {
      if (Schedulable(*v)) {
        local = v;
        break;
      }
    }
    if (local == nullptr || local->priority == CreditPriority::kOver) {
      Vcpu* remote = nullptr;
      for (auto& q : pcpus_) {
        if (q.id == p.id) {
          continue;
        }
        for (Vcpu* w : q.runq) {
          if (!Schedulable(*w)) {
            continue;
          }
          if (w->priority < CreditPriority::kOver &&
              (remote == nullptr || w->priority < remote->priority)) {
            remote = w;
          }
          break;  // runq is priority-sorted; first schedulable is its best
        }
      }
      if (remote != nullptr) {
        RemoveFromRunq(*remote);
        VSCALE_TRACE_INSTANT(sim_.observers(), sim_.Now(), TraceCategory::kHypervisor,
                             "steal", remote->domain()->id(), remote->id(), p.id);
        RunOn(p, *remote);
        return;
      }
    }
  }
  Vcpu* next = PickFromRunq(p);
  if (next == nullptr) {
    next = StealWork(p);
    if (next != nullptr) {
      VSCALE_TRACE_INSTANT(sim_.observers(), sim_.Now(), TraceCategory::kHypervisor,
                           "steal", next->domain()->id(), next->id(), p.id);
    }
  }
  if (next == nullptr) {
    return;  // stays idle; idle_since was set when the pCPU was vacated
  }
  RunOn(p, *next);
}

void Machine::RunOn(Pcpu& p, Vcpu& v) {
  assert(p.current == nullptr);
  assert(v.state == VcpuState::kRunnable);
  const TimeNs now = sim_.Now();
  p.total_idle += now - p.idle_since;
  p.current = &v;
  v.state = VcpuState::kRunning;
  v.pcpu = p.id;
  v.total_wait += now - v.wait_since;
  if (now > v.wait_since) {
    v.domain()->wait_histogram.Add(now - v.wait_since);
  }
  // Window demand accounting: only the part of the wait inside the current window
  // (the pro-rated remainder was already reported by WindowWaited).
  v.domain()->waited_in_window += now - std::max(v.wait_since, window_start_);
  v.domain()->waited_in_acct_window += now - std::max(v.wait_since, acct_window_start_);
  v.run_since = now;
  v.last_settle = now;
  v.slice_end = now + cost_.hv_time_slice;
  ++context_switches_;
  // Opens the "running" slice on both the pCPU and the vCPU export tracks; closed by
  // the matching VSCALE_TRACE_END in DescheduleCurrent.
  VSCALE_TRACE_BEGIN(sim_.observers(), now, TraceCategory::kHypervisor, "run",
                     v.domain()->id(), v.id(), p.id);
  VS_OBSERVE(sim_.observers(), stall, OnDispatch(v.domain()->id(), v.id(), now));
  GuestOs* guest = v.domain()->guest();
  guest->OnScheduledIn(v.id(), now);
  DrainPendingPorts(v);
  if (v.state == VcpuState::kRunning) {
    RearmAdvance(v);
  }
}

void Machine::DrainPendingPorts(Vcpu& v) {
  auto& pending = pending_ports_[static_cast<size_t>(GlobalIndex(v))];
  while (!pending.empty() && v.state == VcpuState::kRunning) {
    const EvtchnPort port = pending.front();
    pending.erase(pending.begin());
    v.domain()->guest()->DeliverEvent(v.id(), port);
  }
}

void Machine::SettleRunning(Vcpu& v) {
  assert(v.state == VcpuState::kRunning);
  const TimeNs now = sim_.Now();
  const TimeNs elapsed = now - v.last_settle;
  if (elapsed <= 0) {
    return;
  }
  v.last_settle = now;
  v.total_runtime += elapsed;
  v.credit_ns -= elapsed;
  Domain& d = *v.domain();
  d.consumed_in_window += elapsed;
  d.consumed_in_acct_window += elapsed;
  // Attribute the running time before the guest advances: the guest's Advance
  // reclassifies any kernel-spin portion of `elapsed` via OnSpinAdvance.
  VS_OBSERVE(sim_.observers(), stall, OnRunningAdvance(d.id(), v.id(), elapsed));
  d.guest()->Advance(v.id(), elapsed);
}

void Machine::RearmAdvance(Vcpu& v) {
  assert(v.state == VcpuState::kRunning);
  const TimeNs now = sim_.Now();
  const TimeNs dt = v.domain()->guest()->NextEventDelta(v.id());
  TimeNs deadline = v.slice_end;
  if (dt != kTimeNever && now + dt < deadline) {
    deadline = now + dt;
  }
  if (deadline < now) {
    deadline = now;
  }
  sim_.ArmTimer(v.advance_timer, deadline);
}

void Machine::OnAdvance(Vcpu& v) {
  // DescheduleCurrent disarms the timer, so it only ever fires on a RUNNING vCPU.
  assert(v.state == VcpuState::kRunning);
  SettleRunning(v);
  Pcpu& p = PcpuOf(v);
  if (sim_.Now() >= v.slice_end) {
    DescheduleCurrent(p, VcpuState::kRunnable);
    ScheduleDecision(p);
    return;
  }
  v.domain()->guest()->OnDeadline(v.id());
  if (v.state == VcpuState::kRunning && !sim_.TimerArmed(v.advance_timer)) {
    RearmAdvance(v);
  }
}

void Machine::DescheduleCurrent(Pcpu& p, VcpuState new_state, bool requeue_tail) {
  Vcpu& v = *p.current;
  const TimeNs now = sim_.Now();
  VSCALE_TRACE_END(sim_.observers(), now, TraceCategory::kHypervisor, "run",
                   v.domain()->id(), v.id(), p.id);
  sim_.DisarmTimer(v.advance_timer);
  sim_.Cancel(p.ratelimit_check);
  p.ratelimit_check = Simulator::kInvalidEvent;
  p.current = nullptr;
  p.idle_since = now;
  v.domain()->guest()->OnDescheduled(v.id(), now);
  // BOOST ends when the vCPU loses the pCPU. Under time-based accounting
  // (docs/ADVERSARIAL.md) every deschedule refreshes priority from the
  // balance: stock credit1 only does this at tick/accounting edges, so a
  // short-burst runner (boost-abuser) that never spans a tick keeps UNDER
  // forever on a drained balance and queue-jumps every OVER victim.
  if (v.priority == CreditPriority::kBoost || config_.acct_time_based) {
    v.priority = v.credit_ns > 0 ? CreditPriority::kUnder : CreditPriority::kOver;
  }
  v.state = new_state;
  v.wait_since = now;
  VS_OBSERVE(sim_.observers(), stall,
             OnDesched(v.domain()->id(), v.id(), now, new_state == VcpuState::kRunnable));
  if (new_state == VcpuState::kRunnable) {
    // Slice-end requeues stay local (no idler tickle): in Xen a descheduled vCPU
    // lingers on its pCPU's runq until an idler's load balance finds it.
    InsertRunnable(v, /*at_head_of_prio=*/!requeue_tail, /*tickle_idlers=*/false);
  }
}

void Machine::WakeVcpu(Vcpu& v, bool boost_eligible) {
  assert(v.state == VcpuState::kBlocked);
  const TimeNs now = sim_.Now();
  v.total_blocked += now - v.wait_since;
  ++v.wakeups;
  v.polling = false;
  v.poll_port = -1;
  if (boost_eligible && v.priority == CreditPriority::kUnder) {
    if (config_.boost_budget > 0 && v.boost_used >= config_.boost_budget) {
      // Budget exhausted (anti boost-abuse): the wake still queues, at UNDER —
      // it just cannot queue-jump until the next accounting period.
      ++boost_denied_;
      VS_OBSERVE(sim_.observers(), coverage, Record(CoveragePoint::kBoostDenied));
    } else {
      v.priority = CreditPriority::kBoost;
      ++v.boost_used;
      ++boost_grants_;
    }
  }
  v.state = VcpuState::kRunnable;
  v.wait_since = now;
  VS_OBSERVE(sim_.observers(), stall, OnWake(v.domain()->id(), v.id(), now));
  VSCALE_TRACE_INSTANT_ARG(sim_.observers(), now, TraceCategory::kHypervisor, "vcpu_wake",
                           v.domain()->id(), v.id(), v.pcpu, "boost",
                           v.priority == CreditPriority::kBoost ? 1 : 0);
  InsertRunnable(v);
}

void Machine::MaybePreempt(Pcpu& p) {
  if (p.current == nullptr) {
    ScheduleDecision(p);
    return;
  }
  // Find the best schedulable priority waiting on this pCPU.
  CreditPriority best = CreditPriority::kOver;
  bool found = false;
  for (Vcpu* v : p.runq) {
    if (Schedulable(*v)) {
      best = v->priority;
      found = true;
      break;
    }
  }
  if (!found || best >= p.current->priority) {
    return;
  }
  const TimeNs now = sim_.Now();
  const TimeNs ran = now - p.current->run_since;
  // Under time-based accounting (docs/ADVERSARIAL.md): no ratelimit shelter
  // for a credit-exhausted vCPU against in-credit waiters. A boost-abuser's
  // sub-ratelimit bursts are otherwise unpreemptable — it voluntarily blocks
  // before the deferred check fires, so it microcycles at full cadence while
  // UNDER victims stack up behind each burst.
  const bool over_shelters =
      !(config_.acct_time_based &&
        p.current->priority == CreditPriority::kOver &&
        best < CreditPriority::kOver);
  if (ran < cost_.hv_ratelimit && over_shelters) {
    // Xen's sched_ratelimit: defer the preemption until the minimum run is served.
    if (p.ratelimit_check == Simulator::kInvalidEvent) {
      const TimeNs when = p.current->run_since + cost_.hv_ratelimit;
      p.ratelimit_check = sim_.ScheduleAt(when, [this, &p] {
        p.ratelimit_check = Simulator::kInvalidEvent;
        MaybePreempt(p);
      });
    }
    return;
  }
  SettleRunning(*p.current);
  ++p.current->preemptions;
  VSCALE_TRACE_INSTANT(sim_.observers(), now, TraceCategory::kHypervisor, "preempt",
                       p.current->domain()->id(), p.current->id(), p.id);
  DescheduleCurrent(p, VcpuState::kRunnable);
  ScheduleDecision(p);
}

// ---------------------------------------------------------------------------
// Periodic machinery
// ---------------------------------------------------------------------------

void Machine::HvTick() {
#if VSCALE_CHECKED
  CheckSchedulerInvariants();
#endif
  for (auto& p : pcpus_) {
    if (p.current == nullptr) {
      // Tickless idle: a halted pCPU does not poll for work — it waits for a wakeup
      // tickle. Work stealing happens only at natural scheduling points (a pCPU
      // vacating), which is what leaves preempted vCPUs parked for slice-scale
      // delays under load — the effect vScale exists to avoid.
      continue;
    }
    Vcpu& v = *p.current;
    SettleRunning(v);
    // Xen demotes BOOST at the first tick and refreshes priority from the balance.
    v.priority = v.credit_ns > 0 ? CreditPriority::kUnder : CreditPriority::kOver;
    // Anti-squatting rebalance (docs/ADVERSARIAL.md): stock work stealing only
    // runs when a pCPU vacates, so a credit-exhausted vCPU that never blocks
    // keeps its pCPU while better-priority work sits parked on a busy
    // neighbour's runq — the second half of the tick-evader's take. Under
    // time-based accounting, migrate the best parked UNDER/BOOST vCPU onto
    // this pCPU and requeue the OVER squatter at the tail of its band.
    if (config_.acct_time_based && v.priority == CreditPriority::kOver) {
      Vcpu* best = nullptr;
      for (auto& q : pcpus_) {
        if (q.id == p.id) {
          continue;  // a better local vCPU is MaybePreempt's job below
        }
        for (Vcpu* w : q.runq) {
          if (!Schedulable(*w)) {
            continue;
          }
          if (w->priority < CreditPriority::kOver &&
              (best == nullptr || w->priority < best->priority)) {
            best = w;
          }
          break;  // runq is priority-sorted; first schedulable is its best
        }
      }
      if (best != nullptr) {
        // Pull the parked vCPU over; the MaybePreempt inside InsertRunnable
        // then evicts the squatter under the normal ratelimit semantics.
        RemoveFromRunq(*best);
        best->pcpu = p.id;
        InsertRunnable(*best, /*at_head_of_prio=*/true, /*tickle_idlers=*/false);
        continue;
      }
    }
    // Cap enforcement at tick granularity.
    Domain& d = *v.domain();
    if (d.cap_pcpus() > 0.0) {
      const TimeNs budget = static_cast<TimeNs>(
          d.cap_pcpus() * static_cast<double>(cost_.hv_accounting_period));
      if (d.consumed_in_acct_window >= budget) {
        d.capped_out = true;
      }
    }
    if (d.capped_out) {
      DescheduleCurrent(p, VcpuState::kRunnable);
      ScheduleDecision(p);
      continue;
    }
    MaybePreempt(p);
  }
  // Stall-accounting sampler: piggybacks on this pre-existing periodic event
  // (never schedules its own), so enabling it cannot perturb the DES event
  // sequence. Every running vCPU was just settled to Now(), which is what
  // makes the bucket-exhaustiveness check exact here.
  VS_OBSERVE(sim_.observers(), stall, Sample(sim_.Now()));
}

void Machine::Accounting() {
  const TimeNs period = cost_.hv_accounting_period;
  const TimeNs capacity = static_cast<TimeNs>(config_.n_pcpus) * period;

  // A domain is acct-active if it consumed CPU this window or has demand right now.
  auto is_active = [&](const Domain& d) {
    if (d.consumed_in_acct_window > 0) {
      return true;
    }
    if (config_.acct_time_based) {
      // Hardened classification: only *accrued* time counts — CPU consumed, or
      // runnable-wait gathered over the window. A vCPU that flipped runnable an
      // instant before this pass contributes nothing, so a VM cannot buy active
      // status (a weight share) with a well-timed wakeup. Running vCPUs are
      // consuming by definition; starved-but-never-dispatched ones are covered
      // by their accrued in-progress wait.
      if (d.waited_in_acct_window > 0) {
        return true;
      }
      const TimeNs now = sim_.Now();
      for (int i = 0; i < d.n_vcpus(); ++i) {
        const Vcpu& v = d.vcpu(i);
        if (v.state == VcpuState::kRunning) {
          return true;
        }
        if (v.state == VcpuState::kRunnable &&
            now - std::max(v.wait_since, acct_window_start_) > 0) {
          return true;
        }
      }
      return false;
    }
    for (int i = 0; i < d.n_vcpus(); ++i) {
      const VcpuState s = d.vcpu(i).state;
      if (s == VcpuState::kRunning || s == VcpuState::kRunnable) {
        return true;
      }
    }
    return false;
  };
  auto effective_weight = [&](const Domain& d) -> int64_t {
    const int64_t w = d.weight();
    if (config_.per_domain_weight) {
      return w;
    }
    return w * std::max(1, d.n_active_vcpus());
  };

  int64_t total_weight = 0;
  for (const auto& d : domains_) {
    if (is_active(*d)) {
      total_weight += effective_weight(*d);
    }
  }

#if VSCALE_CHECKED
  // Credit conservation (Algorithm 1's input side): one accounting pass may hand out
  // at most the pool's capacity, however the weights shake out.
  TimeNs granted_total = 0;
#endif
  for (const auto& d : domains_) {
    const int n_active = std::max(1, d->n_active_vcpus());
    if (is_active(*d) && total_weight > 0) {
      const TimeNs dom_credit = static_cast<TimeNs>(
          static_cast<double>(capacity) * static_cast<double>(effective_weight(*d)) /
          static_cast<double>(total_weight));
#if VSCALE_CHECKED
      granted_total += dom_credit;
#endif
      const TimeNs share = dom_credit / n_active;
      for (int i = 0; i < d->n_vcpus(); ++i) {
        Vcpu& v = d->vcpu(i);
        if (v.frozen) {
          continue;  // removed from the active list (csched_acct with vScale patch)
        }
        v.credit_ns = std::clamp<TimeNs>(v.credit_ns + share, -period, period);
      }
    } else if (config_.acct_time_based) {
      // Hardened idle top-up: the balance ramps back at the weight-fair rate a
      // competing active domain would earn, instead of snapping to +period.
      // Binge/sleep cycling (the tick-evader) then recovers per sleep window
      // only what an honest always-on VM earns per window — no minting.
      const int64_t ew = effective_weight(*d);
      const TimeNs dom_credit = static_cast<TimeNs>(
          static_cast<double>(capacity) * static_cast<double>(ew) /
          static_cast<double>(total_weight + ew));
      const TimeNs share = dom_credit / n_active;
      for (int i = 0; i < d->n_vcpus(); ++i) {
        Vcpu& v = d->vcpu(i);
        if (!v.frozen && v.credit_ns < period) {
          v.credit_ns = std::min(period, v.credit_ns + share);
        }
      }
    } else {
      // Idle domains keep a warm positive balance so their wakeups are UNDER/BOOST.
      for (int i = 0; i < d->n_vcpus(); ++i) {
        Vcpu& v = d->vcpu(i);
        if (!v.frozen && v.credit_ns < period) {
          v.credit_ns = period;
        }
      }
    }
    d->capped_out = false;
    d->consumed_in_acct_window = 0;
    d->waited_in_acct_window = 0;
    for (int i = 0; i < d->n_vcpus(); ++i) {
      d->vcpu(i).boost_used = 0;
    }
  }
  acct_window_start_ = sim_.Now();
  VS_INVARIANT(granted_total <= capacity + static_cast<TimeNs>(domains_.size()),
               "accounting granted %lld ns of credit but pool capacity is only "
               "%lld ns per period",
               static_cast<long long>(granted_total),
               static_cast<long long>(capacity));

  if (VSCALE_TRACE_ACTIVE(sim_.observers())) {
    // One credit-balance sample per domain per accounting pass: the entitlement side
    // of every scheduling decision, next to the run/preempt slices it explains.
    for (const auto& d : domains_) {
      TimeNs credit_sum = 0;
      for (int i = 0; i < d->n_vcpus(); ++i) {
        if (!d->vcpu(i).frozen) {
          credit_sum += d->vcpu(i).credit_ns;
        }
      }
      VSCALE_TRACE_COUNTER(sim_.observers(), sim_.Now(), TraceCategory::kHypervisor,
                           "credit_ns", d->id(), credit_sum);
    }
  }

  // Refresh queued vCPUs' priorities and resort queues.
  for (auto& p : pcpus_) {
    for (Vcpu* v : p.runq) {
      if (v->priority != CreditPriority::kBoost) {
        v->priority = v->credit_ns > 0 ? CreditPriority::kUnder : CreditPriority::kOver;
      }
    }
    std::stable_sort(p.runq.begin(), p.runq.end(),
                     [](const Vcpu* a, const Vcpu* b) { return a->priority < b->priority; });
  }
  for (auto& p : pcpus_) {
    MaybePreempt(p);
  }
}

// ---------------------------------------------------------------------------
// Invariant checking (VSCALE_CHECKED builds; see docs/CHECKING.md)
// ---------------------------------------------------------------------------

#if VSCALE_CHECKED
void Machine::CheckSchedulerInvariants() {
  const TimeNs period = cost_.hv_accounting_period;
  // Legal deficit: the clamp floor (-period), one further period burnt before the
  // next accounting pass, plus ticks of unsettled overshoot. A vCPU frozen (or
  // hotplug-halted) mid-deficit is skipped by the clamp, keeps that balance, and
  // after unfreeze can burn one more period before a pass clamps it again — so
  // the deepest legitimate balance is roughly two missed clamps deep.
  const TimeNs credit_floor = -(4 * period + 2 * cost_.hv_tick_period);
  for (const auto& p : pcpus_) {
    // A stolen pCPU belongs to another pool for the duration of the burst: it
    // must neither run nor park anything (SetStolenPcpus migrated its queue).
    VS_INVARIANT(!p.stolen || (p.current == nullptr && p.runq.empty()),
                 "stolen pcpu %d still holds work (current=%d, runq=%zu)", p.id,
                 p.current != nullptr ? 1 : 0, p.runq.size());
    if (p.current != nullptr) {
      VS_INVARIANT(p.current->state == VcpuState::kRunning,
                   "pcpu %d runs dom %d vcpu %d which is in state %d, not RUNNING",
                   p.id, p.current->domain()->id(), p.current->id(),
                   static_cast<int>(p.current->state));
      VS_INVARIANT(p.current->pcpu == p.id,
                   "pcpu %d runs dom %d vcpu %d whose pcpu field says %d", p.id,
                   p.current->domain()->id(), p.current->id(), p.current->pcpu);
    }
    for (size_t i = 0; i < p.runq.size(); ++i) {
      const Vcpu* v = p.runq[i];
      VS_INVARIANT(v->state == VcpuState::kRunnable,
                   "dom %d vcpu %d queued on pcpu %d in state %d, not RUNNABLE",
                   v->domain()->id(), v->id(), p.id, static_cast<int>(v->state));
      VS_INVARIANT(v->pcpu == p.id,
                   "dom %d vcpu %d queued on pcpu %d but its pcpu field says %d",
                   v->domain()->id(), v->id(), p.id, v->pcpu);
      VS_INVARIANT(i == 0 || p.runq[i - 1]->priority <= v->priority,
                   "runq of pcpu %d is not priority-sorted at position %zu", p.id, i);
    }
  }
  for (const auto& d : domains_) {
    for (int i = 0; i < d->n_vcpus(); ++i) {
      const Vcpu& v = d->vcpu(i);
      if (v.state == VcpuState::kRunning) {
        // At most one RUNNING vCPU per pCPU: every RUNNING vCPU must be the single
        // `current` of the pCPU it claims — two RUNNING vCPUs cannot share one.
        VS_INVARIANT(v.pcpu >= 0 && v.pcpu < n_pcpus(),
                     "dom %d vcpu %d RUNNING on out-of-range pcpu %d", d->id(), i,
                     v.pcpu);
        VS_INVARIANT(pcpus_[static_cast<size_t>(v.pcpu)].current == &v,
                     "dom %d vcpu %d claims to RUN on pcpu %d but is not its current",
                     d->id(), i, v.pcpu);
      }
      // Co-simulation contract: the advance timer drives a running vCPU's guest
      // forward. Unarmed while RUNNING, the guest stalls until some other event
      // happens to settle it; armed while not RUNNING, it advances a guest that
      // holds no pCPU.
      VS_INVARIANT((v.state == VcpuState::kRunning) == sim_.TimerArmed(v.advance_timer),
                   "dom %d vcpu %d is in state %d but its advance timer is %s",
                   d->id(), i, static_cast<int>(v.state),
                   sim_.TimerArmed(v.advance_timer) ? "armed" : "disarmed");
      // BOOST legality: BOOST exists to accelerate a wakeup toward a pCPU; a vCPU
      // that went back to sleep must have been demoted on the way out.
      VS_INVARIANT(v.state != VcpuState::kBlocked ||
                       v.priority != CreditPriority::kBoost,
                   "dom %d vcpu %d is BLOCKED yet still holds BOOST priority",
                   d->id(), i);
      VS_INVARIANT(!v.polling || v.state == VcpuState::kBlocked,
                   "dom %d vcpu %d polls port %d but is in state %d, not BLOCKED",
                   d->id(), i, v.poll_port, static_cast<int>(v.state));
      VS_INVARIANT(v.credit_ns <= period && v.credit_ns >= credit_floor,
                   "dom %d vcpu %d credit balance %lld ns outside [%lld, %lld] — "
                   "credit leak or external corruption",
                   d->id(), i, static_cast<long long>(v.credit_ns),
                   static_cast<long long>(credit_floor),
                   static_cast<long long>(period));
    }
  }
}
#endif  // VSCALE_CHECKED

// ---------------------------------------------------------------------------
// Hypercall surface
// ---------------------------------------------------------------------------

void Machine::BlockVcpu(DomainId dom, VcpuId vcpu) {
  Vcpu& v = GetVcpu(dom, vcpu);
  if (v.state != VcpuState::kRunning) {
    return;
  }
  Pcpu& p = PcpuOf(v);
  SettleRunning(v);
  DescheduleCurrent(p, VcpuState::kBlocked);
  ScheduleDecision(p);
}

void Machine::NotifyEvent(DomainId dom, VcpuId target, EvtchnPort port, bool urgent) {
  Vcpu& v = GetVcpu(dom, target);
  switch (v.state) {
    case VcpuState::kBlocked: {
      pending_ports_[static_cast<size_t>(GlobalIndex(v))].push_back(port);
      WakeVcpu(v, /*boost_eligible=*/true);
      VS_OBSERVE(sim_.observers(), stall, OnEventPosted(dom, target, sim_.Now()));
      break;
    }
    case VcpuState::kRunnable: {
      pending_ports_[static_cast<size_t>(GlobalIndex(v))].push_back(port);
      // The delayed-virtual-interrupt pathology of paper Fig. 1(b)/(c): the event
      // sits pending until the preempted vCPU is scheduled again.
      VSCALE_TRACE_INSTANT_ARG(sim_.observers(), sim_.Now(), TraceCategory::kHypervisor,
                               "evtchn_delayed", dom, target, v.pcpu, "port", port);
      if (urgent) {
        // vScale: prioritize the reconfigured vCPU so freeze/unfreeze IPIs land fast.
        RemoveFromRunq(v);
        if (v.priority != CreditPriority::kBoost) {
          v.priority = CreditPriority::kBoost;
        }
        InsertRunnable(v, /*at_head_of_prio=*/true);
      }
      VS_OBSERVE(sim_.observers(), stall, OnEventPosted(dom, target, sim_.Now()));
      break;
    }
    case VcpuState::kRunning: {
      SettleRunning(v);
      v.domain()->guest()->DeliverEvent(v.id(), port);
      if (v.state == VcpuState::kRunning) {
        RearmAdvance(v);
      }
      break;
    }
  }
}

void Machine::YieldVcpu(DomainId dom, VcpuId vcpu) {
  Vcpu& v = GetVcpu(dom, vcpu);
  if (v.state != VcpuState::kRunning) {
    return;
  }
  Pcpu& p = PcpuOf(v);
  SettleRunning(v);
  DescheduleCurrent(p, VcpuState::kRunnable);
  ScheduleDecision(p);
}

void Machine::PollVcpu(DomainId dom, VcpuId vcpu, EvtchnPort port) {
  Vcpu& v = GetVcpu(dom, vcpu);
  if (v.state != VcpuState::kRunning) {
    return;
  }
  Pcpu& p = PcpuOf(v);
  SettleRunning(v);
  // A poll-block is the pv-spinlock halt path: lock-related, not idle.
  VS_OBSERVE(sim_.observers(), stall,
             SetBlockReason(dom, vcpu, StallBlockReason::kFutex));
  DescheduleCurrent(p, VcpuState::kBlocked);
  v.polling = true;
  v.poll_port = port;
  ScheduleDecision(p);
}

void Machine::NotifyFreeze(DomainId dom, VcpuId vcpu, bool frozen) {
  Vcpu& v = GetVcpu(dom, vcpu);
  v.frozen = frozen;
  VS_OBSERVE(sim_.observers(), stall, OnFrozenChanged(dom, vcpu, sim_.Now(), frozen));
  VSCALE_TRACE_INSTANT_ARG(sim_.observers(), sim_.Now(), TraceCategory::kHypervisor,
                           "hv_freeze", dom, vcpu, v.pcpu, "frozen", frozen ? 1 : 0);
  if (!frozen) {
    // Re-entering the active list: seed the vCPU with the domain's average active
    // balance so it does not sit OVER behind everyone until the next accounting pass.
    Domain& d = *domains_[static_cast<size_t>(dom)];
    TimeNs sum = 0;
    int n = 0;
    for (int i = 0; i < d.n_vcpus(); ++i) {
      const Vcpu& peer = d.vcpu(i);
      if (!peer.frozen && i != vcpu) {
        sum += peer.credit_ns;
        ++n;
      }
    }
    if (n > 0) {
      v.credit_ns = std::max(v.credit_ns, sum / n);
    }
    v.priority = v.credit_ns > 0 ? CreditPriority::kUnder : CreditPriority::kOver;
  }
}

int Machine::ReadExtendability(DomainId dom) {
  return domains_[static_cast<size_t>(dom)]->extendability_nvcpus;
}

ChannelPayload Machine::ReadChannelPayload(DomainId dom) {
  const Domain& d = *domains_[static_cast<size_t>(dom)];
  ChannelPayload p;
  p.nvcpus = d.extendability_nvcpus;
  p.ext_ns = d.extendability_ns;
  p.seq = d.extendability_seq;
  p.stamp = d.extendability_stamp;
  return p;
}

void Machine::VcpuStateChanged(DomainId dom, VcpuId vcpu) {
  Vcpu& v = GetVcpu(dom, vcpu);
  if (v.state == VcpuState::kRunning) {
    SettleRunning(v);
    RearmAdvance(v);
  }
}

// ---------------------------------------------------------------------------
// vScale ticker interface & statistics
// ---------------------------------------------------------------------------

TimeNs Machine::WindowConsumption(DomainId dom) const {
  return domains_[static_cast<size_t>(dom)]->consumed_in_window;
}

TimeNs Machine::WindowWaited(DomainId dom) const {
  const Domain& d = *domains_[static_cast<size_t>(dom)];
  TimeNs waited = d.waited_in_window;
  // Include in-progress waits, pro-rated to this window: queueing stints routinely
  // outlast the 10 ms recalculation window, and missing them would misclassify
  // throttled VMs as releasers.
  const TimeNs now = sim_.Now();
  for (int i = 0; i < d.n_vcpus(); ++i) {
    const Vcpu& v = d.vcpu(i);
    if (v.state == VcpuState::kRunnable) {
      waited += now - std::max(v.wait_since, window_start_);
    }
  }
  return waited;
}

void Machine::ResetConsumptionWindow() {
  for (auto& d : domains_) {
    d->consumed_in_window = 0;
    d->waited_in_window = 0;
  }
  window_start_ = sim_.Now();
}

void Machine::WriteExtendability(DomainId dom, int n_vcpus, TimeNs ext_ns) {
  Domain& d = *domains_[static_cast<size_t>(dom)];
  d.extendability_nvcpus = n_vcpus;
  d.extendability_ns = ext_ns;
  // Seq + valid-stamp: the guest-side staleness/torn-read protocol. An honest
  // writer always advances seq and restamps; a garbling fault perturbs the value
  // without restamping, which is exactly what the reader's check catches.
  ++d.extendability_seq;
  d.extendability_stamp = ChannelStamp(d.extendability_seq, n_vcpus);
}

void Machine::SetStolenPcpus(int n) {
  n = std::clamp(n, 0, n_pcpus() - 1);
  const TimeNs now = sim_.Now();
  // Pass 1: flip the stolen marks and vacate newly stolen pCPUs. Displaced and
  // parked vCPUs are collected first and re-placed only after every mark is final,
  // so none lands on a pCPU about to be stolen in the same transition.
  std::vector<Vcpu*> displaced;
  std::vector<Pcpu*> freed;
  for (auto& p : pcpus_) {
    const bool steal = p.id >= n_pcpus() - n;
    if (steal == p.stolen) {
      continue;
    }
    if (steal) {
      p.stolen = true;
      p.stolen_since = now;
      if (p.current != nullptr) {
        SettleRunning(*p.current);
        ++p.current->preemptions;
        Vcpu& evicted = *p.current;
        VSCALE_TRACE_INSTANT(sim_.observers(), now, TraceCategory::kHypervisor,
                             "steal_evict", evicted.domain()->id(), evicted.id(), p.id);
        // InsertRunnable sees p already marked stolen, so the requeue re-places
        // the evicted vCPU on a surviving pCPU right away.
        DescheduleCurrent(p, VcpuState::kRunnable);
        VS_OBSERVE(sim_.observers(), stall,
                   OnStealDisplaced(evicted.domain()->id(), evicted.id(), now));
      } else {
        // Close the idle window: the burst counts as stolen time, not idle time.
        p.total_idle += now - p.idle_since;
      }
      p.idle_since = now;
      for (Vcpu* v : p.runq) {
        displaced.push_back(v);
      }
      p.runq.clear();
    } else {
      p.stolen = false;
      stolen_ns_ += now - p.stolen_since;
      p.idle_since = now;
      freed.push_back(&p);
    }
  }
  // Pass 2: the hypervisor migrates the stolen pCPUs' queues to surviving ones.
  for (Vcpu* v : displaced) {
    v->pcpu = -1;
    VS_OBSERVE(sim_.observers(), stall,
               OnStealDisplaced(v->domain()->id(), v->id(), now));
    InsertRunnable(*v);
  }
  for (Pcpu* p : freed) {
    ScheduleDecision(*p);
  }
}

int Machine::stolen_pcpus() const {
  int n = 0;
  for (const auto& p : pcpus_) {
    if (p.stolen) {
      ++n;
    }
  }
  return n;
}

TimeNs Machine::TotalIdleTime() const {
  TimeNs total = 0;
  for (const auto& p : pcpus_) {
    total += p.total_idle;
    if (p.current == nullptr) {
      total += sim_.Now() - p.idle_since;
    }
  }
  return total;
}

}  // namespace vscale
