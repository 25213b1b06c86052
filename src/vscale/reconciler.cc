#include "src/vscale/reconciler.h"

#include "src/base/check.h"
#include "src/base/trace.h"
#include "src/obs/coverage.h"

namespace vscale {

void ReconcilerConfig::Validate() const {
  VS_REQUIRE(check_period > 0,
             "ReconcilerConfig.check_period must be positive (got %lld ns)",
             static_cast<long long>(check_period));
  VS_REQUIRE(grace >= 0, "ReconcilerConfig.grace must be >= 0 (got %lld ns)",
             static_cast<long long>(grace));
}

VscaleReconciler::VscaleReconciler(GuestKernel& kernel, HvServices& hv,
                                   VscaleDaemon* daemon, ReconcilerConfig config)
    : kernel_(kernel),
      hv_(hv),
      daemon_(daemon),
      config_(config),
      task_(kernel.sim(), config.check_period, [this] { Audit(); }),
      diverged_since_(static_cast<size_t>(kernel.n_cpus()), -1) {
  config_.Validate();
}

void VscaleReconciler::Start() { task_.Start(); }

void VscaleReconciler::Stop() { task_.Stop(); }

void VscaleReconciler::OnWatchdogTrip() {
  // The trip already proves the control plane blew its deadline: audit now so a
  // freeze-state wedge behind the dead daemon is timestamped (and, past grace,
  // repaired) without waiting out the rest of the reconcile period.
  VSCALE_TRACE_INSTANT(kernel_.observers(), kernel_.NowNs(), TraceCategory::kVscale,
                       "reconcile_trip_audit", kernel_.domain().id(), 0, -1);
  Audit();
}

TimeNs VscaleReconciler::RepairVcpu(int i, bool guest_frozen, bool hv_frozen,
                                    bool lost_wake) {
  const TimeNs now = kernel_.NowNs();
  ++repairs_;
  VS_OBSERVE(kernel_.observers(), coverage, OnReconcileRepair());
  TimeNs cost = 0;
  const DomainId dom = kernel_.domain().id();
  if (lost_wake) {
    // Lost wakeup: the vCPU sits hypervisor-blocked over queued runnable
    // threads, which can only mean its wake notification never landed (the
    // enqueue always precedes the IPI). tick_rescue covers this while some
    // other vCPU still ticks; the reconciler is the rescuer of last resort for
    // a fully idle domain, where no tick will ever fire. Same daemon-side
    // hypercall channel as the re-kick below — not the faultable guest seam.
    hv_.NotifyEvent(dom, i, kPortResched, /*urgent=*/false);
    cost += kernel_.cost().freeze_resched_ipi;
    VSCALE_TRACE_INSTANT(kernel_.observers(), now, TraceCategory::kVscale,
                         "reconcile_rewake", dom, i, -1);
  }
  if (guest_frozen != hv_frozen) {
    // The guest mask is authoritative — it is what balancing and irq routing
    // already obey — so re-issue SCHEDOP_freezecpu to drag the hypervisor's
    // credit accounting back into agreement with it.
    hv_.NotifyFreeze(dom, i, guest_frozen);
    cost += kernel_.cost().freeze_hypercall;
    VSCALE_TRACE_INSTANT_ARG(kernel_.observers(), now, TraceCategory::kVscale,
                             "reconcile_refreeze", dom, i, -1, "frozen",
                             guest_frozen ? 1 : 0);
  }
  if (guest_frozen && kernel_.cpu(i).evacuate_pending) {
    // Wedged handshake: frozen past grace but never evacuated — the freeze IPI
    // was lost. Re-kick the event channel directly (hypercall path, not the
    // faultable guest-interior seam: the daemon-side poke is its own channel).
    hv_.NotifyEvent(dom, i, kPortFreeze, /*urgent=*/true);
    cost += kernel_.cost().freeze_resched_ipi;
    VSCALE_TRACE_INSTANT(kernel_.observers(), now, TraceCategory::kVscale,
                         "reconcile_rekick", dom, i, -1);
  }
  return cost;
}

void VscaleReconciler::Audit() {
  const TimeNs now = kernel_.NowNs();
  ++cycles_;
  const uint64_t guest_mask = kernel_.freeze_mask();
  const uint64_t hv_mask = kernel_.domain().hv_freeze_mask();
  bool any_divergence = false;
  TimeNs repair_cost = 0;

  // Leg 1+2: guest cpu_freeze_mask vs hypervisor frozen bits, plus the wedged
  // handshake (frozen but never evacuated) that leaves both masks agreeing on a
  // state the vCPU never actually reached.
  for (int i = 0; i < kernel_.n_cpus(); ++i) {
    const bool guest_frozen = ((guest_mask >> i) & 1) != 0;
    const bool hv_frozen = ((hv_mask >> i) & 1) != 0;
    const GuestCpu& c = kernel_.cpu(i);
    const Vcpu& v = kernel_.domain().vcpu(i);
    const bool wedged = guest_frozen && c.evacuate_pending;
    // A vCPU hypervisor-blocked with runnable threads queued is the fourth
    // divergence shape: the guest's runqueue says "work here", the hypervisor's
    // blocked bit says "nothing to do". Same predicate as the tick_rescue scan
    // in HandleTick, but audited from the daemon-side heartbeat so it fires
    // even when no other vCPU is awake to tick.
    const bool lost_wake = !c.frozen && !c.evacuate_pending && !c.hv_running &&
                           c.current == nullptr && !c.runq.empty() &&
                           v.state == VcpuState::kBlocked && !v.polling;
    const bool diverged = guest_frozen != hv_frozen || wedged || lost_wake;
    const size_t idx = static_cast<size_t>(i);
    if (!diverged) {
      diverged_since_[idx] = -1;
      continue;
    }
    any_divergence = true;
    if (diverged_since_[idx] < 0) {
      diverged_since_[idx] = now;
      ++divergence_detected_;
      if (first_divergence_ns_ == 0) {
        first_divergence_ns_ = now;
      }
      VS_OBSERVE(kernel_.observers(), coverage, OnReconcileDivergence());
      VSCALE_TRACE_INSTANT_ARG(kernel_.observers(), now, TraceCategory::kVscale,
                               "reconcile_diverge", kernel_.domain().id(), i, -1,
                               "wedged", wedged ? 1 : 0);
    } else if (now - diverged_since_[idx] >= config_.grace) {
      repair_cost += RepairVcpu(i, guest_frozen, hv_frozen, lost_wake);
      // Restart the clock: the repair gets a full grace window to take effect
      // before the reconciler escalates to repairing the same vCPU again.
      diverged_since_[idx] = now;
    }
  }

  // Leg 3: the daemon's believed size vs the guest's actual online count. Only
  // the under-provisioned direction is a liveness problem (the VM runs smaller
  // than its controller intends, forever); over-provisioned just means the next
  // healthy daemon cycle will shrink it back.
  if (daemon_ != nullptr && daemon_->last_target() > 0) {
    const int believed = daemon_->last_target();
    const int online = kernel_.online_cpus();
    if (online < believed) {
      any_divergence = true;
      if (daemon_diverged_since_ < 0) {
        daemon_diverged_since_ = now;
        ++divergence_detected_;
        if (first_divergence_ns_ == 0) {
          first_divergence_ns_ = now;
        }
        VS_OBSERVE(kernel_.observers(), coverage, OnReconcileDivergence());
        VSCALE_TRACE_INSTANT_ARG(kernel_.observers(), now, TraceCategory::kVscale,
                                 "reconcile_diverge", kernel_.domain().id(), -1, -1,
                                 "believed_minus_online", believed - online);
      } else if (now - daemon_diverged_since_ >= config_.grace) {
        ++repairs_;
        VS_OBSERVE(kernel_.observers(), coverage, OnReconcileRepair());
        int n_online = online;
        for (int i = 1; i < kernel_.n_cpus() && n_online < believed; ++i) {
          if (kernel_.IsFrozen(i)) {
            repair_cost += kernel_.UnfreezeCpu(i);
            ++n_online;
          }
        }
        VSCALE_TRACE_INSTANT_ARG(kernel_.observers(), now, TraceCategory::kVscale,
                                 "reconcile_unfreeze", kernel_.domain().id(), -1, -1,
                                 "restored", n_online - online);
        daemon_diverged_since_ = now;
      }
    } else {
      daemon_diverged_since_ = -1;
    }
  }

  // Like the watchdog's emergency unfreeze, repair work is kernel/irq context:
  // it lands on vCPU0's backlog, consumed before thread work.
  if (repair_cost > 0) {
    kernel_.cpu(0).pending_kernel_ns += repair_cost;
  }
  if (prev_divergent_ && !any_divergence) {
    ++converged_;
    VS_OBSERVE(kernel_.observers(), coverage, OnReconcileConverged());
    VSCALE_TRACE_INSTANT(kernel_.observers(), now, TraceCategory::kVscale,
                         "reconcile_converged", kernel_.domain().id(), 0, -1);
  }
  prev_divergent_ = any_divergence;
}

}  // namespace vscale
