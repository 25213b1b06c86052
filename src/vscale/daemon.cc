#include "src/vscale/daemon.h"

#include <algorithm>
#include <cmath>

#include "src/base/check.h"
#include "src/base/trace.h"
#include "src/obs/coverage.h"

namespace vscale {

namespace {
// Plausibility-clamp hysteresis: consecutive implausible grow cycles required
// before the clamp engages, so a genuine demand spike racing the sample window
// is not capped.
constexpr int kClampConfirmations = 2;
}  // namespace

void DaemonConfig::Validate() const {
  VS_REQUIRE(poll_period > 0,
             "DaemonConfig.poll_period must be positive (got %lld ns)",
             static_cast<long long>(poll_period));
  VS_REQUIRE(shrink_confirmations >= 1,
             "DaemonConfig.shrink_confirmations must be >= 1 (got %d)",
             shrink_confirmations);
  VS_REQUIRE(grow_confirmations >= 1,
             "DaemonConfig.grow_confirmations must be >= 1 (got %d)",
             grow_confirmations);
  VS_REQUIRE(max_read_retries >= 0,
             "DaemonConfig.max_read_retries must be >= 0 (got %d)",
             max_read_retries);
  VS_REQUIRE(max_apply_retries >= 0,
             "DaemonConfig.max_apply_retries must be >= 0 (got %d)",
             max_apply_retries);
  VS_REQUIRE(retry_backoff_base > 0,
             "DaemonConfig.retry_backoff_base must be positive (got %lld ns)",
             static_cast<long long>(retry_backoff_base));
  VS_REQUIRE(retry_backoff_cap >= retry_backoff_base,
             "DaemonConfig.retry_backoff_cap (%lld ns) must be >= base (%lld ns)",
             static_cast<long long>(retry_backoff_cap),
             static_cast<long long>(retry_backoff_base));
  VS_REQUIRE(stale_reads_threshold >= 1,
             "DaemonConfig.stale_reads_threshold must be >= 1 (got %d)",
             stale_reads_threshold);
  VS_REQUIRE(unhealthy_cycles >= 1,
             "DaemonConfig.unhealthy_cycles must be >= 1 (got %d)",
             unhealthy_cycles);
  VS_REQUIRE(resume_confirmations >= 1,
             "DaemonConfig.resume_confirmations must be >= 1 (got %d)",
             resume_confirmations);
}

VscaleDaemon::VscaleDaemon(GuestKernel& kernel, HvServices& hv, DaemonConfig config)
    : kernel_(kernel),
      config_(config),
      channel_(hv, kernel.cost(), kernel.domain().id(), kernel.observers()),
      balancer_(kernel) {
  config_.Validate();
}

GuestThread& VscaleDaemon::Start() {
  GuestThread& t = kernel_.Spawn("vscaled", this, ThreadType::kUthread,
                                 /*pinned_cpu=*/0);
  t.rt = true;
  return t;
}

void VscaleDaemon::set_fault_injector(FaultInjector* injector) {
  faults_ = injector;
  channel_.set_fault_injector(injector);
  balancer_.set_fault_injector(injector);
}

int VscaleDaemon::SafeFloor() const {
  const int floor =
      config_.safe_vcpu_floor <= 0 ? kernel_.n_cpus() : config_.safe_vcpu_floor;
  return std::min(floor, kernel_.n_cpus());
}

TimeNs VscaleDaemon::Backoff(int attempt) const {
  const int shift = std::min(attempt - 1, 20);
  return std::min(config_.retry_backoff_base << shift, config_.retry_backoff_cap);
}

void VscaleDaemon::StartApply(int target) {
  apply_target_ = target;
  apply_attempts_ = 0;
  DoApply();
  phase_ = Phase::kApply;
}

void VscaleDaemon::DoApply() {
  const VscaleBalancer::ApplyOutcome out = balancer_.ApplyTarget(apply_target_);
  pending_apply_cost_ += out.cost;
  apply_complete_ = out.complete;
}

void VscaleDaemon::Degrade() {
  degraded_ = true;
  ++degradations_;
  VS_OBSERVE(kernel_.observers(), coverage, OnDaemonDegrade());
  if (first_degrade_ns_ == 0) {
    first_degrade_ns_ = kernel_.NowNs();
  }
  votes_ = 0;
  pending_target_ = -1;
  healthy_streak_ = 0;
  VSCALE_TRACE_INSTANT_ARG(kernel_.observers(), kernel_.NowNs(), TraceCategory::kVscale,
                           "daemon_degrade", kernel_.domain().id(), 0, -1, "floor",
                           SafeFloor());
  // Fail safe: with the channel dead the VM may be stuck shrunk while demand
  // grows, so give it its vCPUs back (up to the floor) and hold.
  if (kernel_.online_cpus() < SafeFloor()) {
    StartApply(SafeFloor());
  }
}

void VscaleDaemon::Resume() {
  degraded_ = false;
  ++resumes_;
  VS_OBSERVE(kernel_.observers(), coverage, OnDaemonResume());
  last_resume_ns_ = kernel_.NowNs();
  votes_ = 0;
  pending_target_ = -1;
  VSCALE_TRACE_INSTANT(kernel_.observers(), kernel_.NowNs(), TraceCategory::kVscale,
                       "daemon_resume", kernel_.domain().id(), 0, -1);
}

void VscaleDaemon::OnWatchdogTrip() {
  // Watchdog-forced degradation enters the same semantic state as a
  // self-detected one; keep the coverage map's daemon-state shadow honest.
  VS_OBSERVE(kernel_.observers(), coverage, OnDaemonDegrade());
  degraded_ = true;
  votes_ = 0;
  pending_target_ = -1;
  healthy_streak_ = 0;
}

void VscaleDaemon::ResetControlState() {
  // A restarted daemon is a fresh process: no votes, no samples, no memory of the
  // previous incarnation's health tracking.
  phase_ = Phase::kRead;
  pending_target_ = -1;
  votes_ = 0;
  pending_apply_cost_ = 0;
  sample_head_ = 0;
  sample_count_ = 0;
  backoff_ = 0;
  read_attempts_ = 0;
  apply_attempts_ = 0;
  apply_target_ = -1;
  apply_complete_ = true;
  failed_cycles_ = 0;
  healthy_streak_ = 0;
  last_seq_ = 0;
  stale_streak_ = 0;
  implausible_streak_ = 0;
  degraded_ = false;
}

Op VscaleDaemon::FinishCycle(GuestKernel& kernel, TimeNs cost) {
  ++cycles_;
  if (phase_ == Phase::kRead) {
    phase_ = Phase::kSleep;  // nothing to apply this cycle
  }
  if (on_cycle) {
    on_cycle(kernel.NowNs(), kernel.online_cpus());
  }
  return Op::Compute(cost);
}

Op VscaleDaemon::CycleStart(GuestKernel& kernel) {
  // Fault plane: a crashed daemon is gone until its scheduled restart (the fault
  // window end); a stalled one silently misses cycles. Neither heartbeats — which
  // is exactly what the external VscaleWatchdog keys on.
  if (faults_ != nullptr && faults_->Active(FaultKind::kDaemonCrash)) {
    if (!crashed_) {
      crashed_ = true;
      ++crashes_;
      VS_OBSERVE(kernel.observers(), coverage, OnDaemonCrash());
      VSCALE_TRACE_INSTANT(kernel.observers(), kernel.NowNs(), TraceCategory::kVscale,
                           "daemon_crash", kernel.domain().id(), 0, -1);
    }
    read_attempts_ = 0;
    return Op::Sleep(config_.poll_period);
  }
  if (crashed_) {
    crashed_ = false;
    ++restarts_;
    VS_OBSERVE(kernel.observers(), coverage, OnDaemonRestart());
    ResetControlState();
    VSCALE_TRACE_INSTANT(kernel.observers(), kernel.NowNs(), TraceCategory::kVscale,
                         "daemon_restart", kernel.domain().id(), 0, -1);
  }
  if (faults_ != nullptr && faults_->Active(FaultKind::kDaemonStall)) {
    read_attempts_ = 0;
    return Op::Sleep(config_.poll_period);
  }

  last_heartbeat_ = kernel.NowNs();
  // sys_getvscaleinfo + SCHEDOP_getvscaleinfo: fetch extendability, charge cost.
  const VscaleChannel::ReadResult r = channel_.Read();
  if (!r.ok) {
    if (read_attempts_ < config_.max_read_retries) {
      // Bounded in-cycle retry with deterministic exponential backoff.
      ++read_attempts_;
      ++read_retries_;
      backoff_ = Backoff(read_attempts_);
      phase_ = Phase::kReadBackoff;
      VSCALE_TRACE_INSTANT_ARG(kernel.observers(), kernel.NowNs(),
                               TraceCategory::kVscale, "read_retry", kernel.domain().id(),
                               0, -1, "attempt", read_attempts_);
      return Op::Compute(r.cost);
    }
    // Retries exhausted: the cycle failed. Enough of those in a row means the
    // channel is gone, not glitching — degrade rather than keep scaling blind.
    read_attempts_ = 0;
    healthy_streak_ = 0;
    ++failed_cycles_;
    if (!degraded_ && failed_cycles_ >= config_.unhealthy_cycles) {
      Degrade();
    }
    return FinishCycle(kernel, r.cost);
  }
  read_attempts_ = 0;
  failed_cycles_ = 0;

  // Staleness: an honest ticker advances seq every recalc period, and the poll
  // period can never outpace it (the cycle takes poll_period plus work). A seq
  // that stops moving means the writer is wedged; its data describes a machine
  // state of unknown age, so hold — never act on it. seq 0 = never written.
  bool stale = false;
  if (r.seq != 0) {
    if (r.seq == last_seq_) {
      ++stale_streak_;
      if (stale_streak_ >= config_.stale_reads_threshold) {
        if (stale_streak_ == config_.stale_reads_threshold) {
          ++stale_detections_;
          VS_OBSERVE(kernel.observers(), coverage, OnDaemonStaleHold());
          VSCALE_TRACE_INSTANT_ARG(kernel.observers(), kernel.NowNs(),
                                   TraceCategory::kVscale, "stale_detected",
                                   kernel.domain().id(), 0, -1, "seq",
                                   static_cast<int64_t>(r.seq));
        }
        stale = true;
      }
    } else {
      stale_streak_ = 0;
    }
    last_seq_ = r.seq;
  }
  if (stale) {
    healthy_streak_ = 0;
    ++stale_held_cycles_;
    return FinishCycle(kernel, r.cost);
  }

  ++healthy_streak_;
  if (degraded_) {
    if (healthy_streak_ >= config_.resume_confirmations) {
      Resume();  // and run a normal control decision this same cycle
    } else {
      // Still degraded: hold the floor, reasserting it if a failed unfreeze (or a
      // watchdog trip racing a freeze batch) left the VM short of it.
      if (kernel.online_cpus() < SafeFloor()) {
        StartApply(SafeFloor());
      }
      return FinishCycle(kernel, r.cost);
    }
  }

  // --- normal control decision (the healthy-path daemon, unchanged) ---
  int target = r.extendability_nvcpus;
  if (target <= 0) {
    target = kernel.online_cpus();  // ticker has not run yet
  }
  if (config_.useful_obtainment_guard || config_.plausibility_clamp) {
    DemandSample s;
    s.time = kernel.NowNs();
    kernel.TotalThreadTimes(&s.cpu, &s.spin, &s.wait);
    if (sample_count_ >= 1) {
      // Diff against the oldest retained sample: an up-to-6-poll trailing window
      // smooths barrier-cadence oscillation in the spin signal.
      const int oldest =
          (sample_head_ + kDemandWindow - sample_count_) % kDemandWindow;
      const DemandSample& old = samples_[oldest];
      const TimeNs cpu_delta = s.cpu - old.cpu;
      const TimeNs spin_delta = s.spin - old.spin;
      const TimeNs wait_delta = s.wait - old.wait;
      const TimeNs time_delta = s.time - old.time;
      if (config_.useful_obtainment_guard) {
        const double spin_frac =
            cpu_delta > 0 ? static_cast<double>(spin_delta) /
                                static_cast<double>(cpu_delta)
                          : 0.0;
        if (spin_frac < 0.65) {
          // Mostly-useful cycles (or an idle VM, whose blocked vCPUs compete for
          // nothing anyway): packing would trade real progress for nothing, since
          // wakeup boosting already protects blocking workloads from scheduling
          // delays. Only spin-wasting workloads shrink below their current size.
          target = std::max(target, kernel.online_cpus());
        }
      }
      if (config_.plausibility_clamp && time_delta > 0) {
        if (target > kernel.online_cpus()) {
          // Plausible parallelism = what the guest's own threads demonstrably
          // demanded (CPU consumed plus queued-runnable time) per unit time,
          // plus one vCPU of growth headroom. A channel promising more than
          // that is reporting demand this guest never generated — the
          // signature of an inflated extendability (docs/ADVERSARIAL.md).
          const double demand_rate =
              static_cast<double>(cpu_delta + wait_delta) /
              static_cast<double>(time_delta);
          const int plausible = static_cast<int>(std::ceil(demand_rate)) + 1;
          if (target > plausible) {
            ++implausible_streak_;
            if (implausible_streak_ >= kClampConfirmations) {
              ++clamped_cycles_;
              VS_OBSERVE(kernel.observers(), coverage,
                         Record(CoveragePoint::kClampFired));
              VSCALE_TRACE_INSTANT_ARG(kernel.observers(), kernel.NowNs(),
                                       TraceCategory::kVscale, "clamp",
                                       kernel.domain().id(), 0, -1, "plausible",
                                       plausible);
              target = std::max(kernel.online_cpus(), plausible);
            }
          } else {
            implausible_streak_ = 0;
          }
        } else {
          implausible_streak_ = 0;
        }
      }
    }
    samples_[sample_head_] = s;
    sample_head_ = (sample_head_ + 1) % kDemandWindow;
    if (sample_count_ < kDemandWindow) {
      ++sample_count_;
    }
  }
  const int active = kernel.online_cpus();
  int to_apply = active;
  if (target != active) {
    if (target == pending_target_) {
      ++votes_;
    } else {
      pending_target_ = target;
      votes_ = 1;
    }
    const int needed = target < active ? config_.shrink_confirmations
                                       : config_.grow_confirmations;
    if (votes_ >= needed) {
      to_apply = target;
      votes_ = 0;
      pending_target_ = -1;
    }
  } else {
    votes_ = 0;
    pending_target_ = -1;
  }
  last_target_ = target;
  if (to_apply != active) {
    StartApply(to_apply);
  }
  return FinishCycle(kernel, r.cost);
}

Op VscaleDaemon::Next(GuestKernel& kernel, GuestThread& thread) {
  (void)thread;
  switch (phase_) {
    case Phase::kRead:
      return CycleStart(kernel);
    case Phase::kReadBackoff:
      phase_ = Phase::kRead;
      return Op::Sleep(backoff_);
    case Phase::kApplyRetry:
      ++apply_retries_;
      DoApply();
      [[fallthrough]];
    case Phase::kApply: {
      // Master-side freeze/unfreeze work (Table 3) executes in our context.
      const TimeNs cost = pending_apply_cost_;
      pending_apply_cost_ = 0;
      if (!apply_complete_ && apply_attempts_ < config_.max_apply_retries) {
        // The batch aborted partway (freeze-op failure): back off and retry the
        // remainder instead of hammering a failing hotplug path.
        ++apply_attempts_;
        backoff_ = Backoff(apply_attempts_);
        phase_ = Phase::kApplyBackoff;
      } else {
        apply_target_ = -1;
        phase_ = Phase::kSleep;
      }
      return Op::Compute(cost);
    }
    case Phase::kApplyBackoff:
      phase_ = Phase::kApplyRetry;
      return Op::Sleep(backoff_);
    case Phase::kSleep:
      phase_ = Phase::kRead;
      return Op::Sleep(config_.poll_period);
  }
  return Op::Exit();
}

}  // namespace vscale
