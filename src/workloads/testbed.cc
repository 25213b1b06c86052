#include "src/workloads/testbed.h"

#include "src/base/check.h"
#include "src/base/metrics_registry.h"
#include "src/metrics/run_metrics.h"
#include "src/obs/coverage.h"
#include "src/obs/stall_accounting.h"

namespace vscale {

const char* ToString(Policy p) {
  switch (p) {
    case Policy::kBaseline:
      return "Xen/Linux";
    case Policy::kBaselinePvlock:
      return "Xen/Linux+pvlock";
    case Policy::kVscale:
      return "vScale";
    case Policy::kVscalePvlock:
      return "vScale+pvlock";
  }
  return "?";
}

bool PolicyUsesVscale(Policy p) {
  return p == Policy::kVscale || p == Policy::kVscalePvlock;
}

bool PolicyUsesPvlock(Policy p) {
  return p == Policy::kBaselinePvlock || p == Policy::kVscalePvlock;
}

void HardeningConfig::Validate() const {
  VS_REQUIRE(boost_budget >= 0,
             "HardeningConfig.boost_budget must be >= 0 (0 = unlimited; got %d)",
             boost_budget);
  VS_REQUIRE(waited_cap_ratio >= 0.0,
             "HardeningConfig.waited_cap_ratio must be >= 0 (0 = uncapped; got %f)",
             waited_cap_ratio);
  VS_REQUIRE(freeze_resend_ns >= 0,
             "HardeningConfig.freeze_resend_ns must be >= 0 (0 = off; got %lld)",
             static_cast<long long>(freeze_resend_ns));
}

void TestbedConfig::Validate() const {
  VS_REQUIRE(primary_vcpus >= 1,
             "TestbedConfig.primary_vcpus must be >= 1 (got %d)", primary_vcpus);
  VS_REQUIRE(primary_vcpus <= kMaxVcpusPerDomain,
             "TestbedConfig.primary_vcpus (%d) exceeds the configured max (%d)",
             primary_vcpus, kMaxVcpusPerDomain);
  VS_REQUIRE(pool_pcpus >= 0,
             "TestbedConfig.pool_pcpus must be >= 0 (0 = auto; got %d)",
             pool_pcpus);
  VS_REQUIRE(weight_per_vcpu > 0,
             "TestbedConfig.weight_per_vcpu must be positive (got %d)",
             weight_per_vcpu);
  VS_REQUIRE(crunch_mean >= 0 && quiet_mean >= 0,
             "TestbedConfig crunch/quiet phase means must be >= 0 "
             "(got %lld / %lld ns)",
             static_cast<long long>(crunch_mean),
             static_cast<long long>(quiet_mean));
  for (const FaultEvent& ev : faults.events) {
    VS_REQUIRE(ev.start >= 0 && ev.duration > 0,
               "TestbedConfig fault event %s has start %lld / duration %lld; "
               "start must be >= 0 and duration > 0",
               ToString(ev.kind), static_cast<long long>(ev.start),
               static_cast<long long>(ev.duration));
    VS_REQUIRE(ev.magnitude >= 0,
               "TestbedConfig fault event %s has negative magnitude %lld",
               ToString(ev.kind), static_cast<long long>(ev.magnitude));
  }
  daemon.Validate();
  if (enable_watchdog) {
    watchdog.Validate();
  }
  hardening.Validate();
  if (hardening.reconciler) {
    reconciler.Validate();
  }
  for (const AntagonistConfig& a : antagonists) {
    a.Validate();
  }
}

ResolvedTopology ResolveTopology(const TestbedConfig& config) {
  const int pool = config.pool_pcpus > 0 ? config.pool_pcpus : 12;
  int background = config.background_vms;
  if (background == 0) {
    // Consolidate to an average of 2 vCPUs per pCPU with 2-vCPU desktops.
    background = std::max(0, (2 * pool - config.primary_vcpus) / 2);
  } else if (background < 0) {
    background = 0;  // dedicated machine
  }
  return {pool, background,
          1 + background + static_cast<int>(config.antagonists.size())};
}

Testbed::Testbed(TestbedConfig config) : config_(config) {
  config_.Validate();
  const ResolvedTopology topology = ResolveTopology(config_);
  config_.pool_pcpus = topology.pool_pcpus;
  config_.background_vms = topology.background_vms;

  // Arm the stall accountant before the machine exists so the per-vCPU birth
  // hooks in CreateDomain land in this run's timeline.
  Observers& obs = config_.observers;
  if (config_.stall_accounting && obs.stall == nullptr) {
    obs.stall = &StallAccountant::Global();
  }
  if (obs.stall != nullptr) {
    obs.stall->BeginRun(SanitizeMetricName(ToString(config_.policy)), obs);
  }

  // Arm the coverage map alongside, and bin the resolved scenario shape while
  // the config is in hand (the domain count includes desktops + antagonists).
  if (obs.coverage != nullptr) {
    obs.coverage->BeginRun();
    obs.coverage->RecordShape(
        static_cast<int>(config_.policy), topology.domains, config_.primary_vcpus,
        /*dedicated=*/config_.background_vms == 0,
        /*antagonist=*/!config_.antagonists.empty(),
        /*hardened=*/config_.hardening.AnyEnabled());
  }

  MachineConfig mc;
  mc.n_pcpus = config_.pool_pcpus;
  mc.seed = config_.seed;
  mc.per_domain_weight = true;  // the vScale Xen patch; also fair for the baseline
  mc.acct_time_based = config_.hardening.acct_time_based;
  mc.boost_budget = config_.hardening.boost_budget;
  mc.observers = obs;
  machine_ = std::make_unique<Machine>(mc);

  GuestConfig gc;
  gc.pv_spinlock = PolicyUsesPvlock(config_.policy);

  // Delivery hardening applies to the VM under test only: desktops and
  // antagonists keep the stock kernel so their timing is untouched.
  GuestConfig primary_gc = gc;
  primary_gc.ipi_dedup = config_.hardening.ipi_dedup;
  primary_gc.freeze_resend_ns = config_.hardening.freeze_resend_ns;
  primary_gc.tick_rescue = config_.hardening.tick_rescue;

  Domain& prime = machine_->CreateDomain(
      "primary", config_.weight_per_vcpu * config_.primary_vcpus,
      config_.primary_vcpus);
  primary_kernel_ = std::make_unique<GuestKernel>(*machine_, machine_->sim(),
                                                  prime, primary_gc);

  Rng seeder(config_.seed ^ 0x5eedULL);
  if (config_.crunch_mean > 0 && config_.quiet_mean > 0) {
    phases_ = std::make_unique<LoadPhaseSchedule>(config_.crunch_mean,
                                                  config_.quiet_mean,
                                                  seeder.NextU64());
  }
  for (int i = 0; i < config_.background_vms; ++i) {
    Domain& d = machine_->CreateDomain("desktop" + std::to_string(i),
                                       config_.weight_per_vcpu * 2, 2);
    background_kernels_.push_back(
        std::make_unique<GuestKernel>(*machine_, machine_->sim(), d, gc));
    auto desktop = std::make_unique<SlideshowDesktop>(
        *background_kernels_.back(), seeder.NextU64(), phases_.get());
    desktop->Start();
    desktops_.push_back(std::move(desktop));
  }

  // Antagonist VMs join after the desktops, so every existing scenario's
  // domain numbering (and its digest) is untouched when the list is empty.
  for (size_t i = 0; i < config_.antagonists.size(); ++i) {
    const AntagonistConfig& ac = config_.antagonists[i];
    const int weight =
        ac.weight > 0 ? ac.weight : config_.weight_per_vcpu * ac.vcpus;
    Domain& d = machine_->CreateDomain("antag" + std::to_string(i), weight,
                                       ac.vcpus);
    antagonist_domain_ids_.push_back(d.id());
    antagonist_kernels_.push_back(
        std::make_unique<GuestKernel>(*machine_, machine_->sim(), d, gc));
    auto ant = std::make_unique<Antagonist>(*antagonist_kernels_.back(), ac,
                                            seeder.NextU64());
    ant->Start();
    antagonists_.push_back(std::move(ant));
  }

  if (!config_.faults.empty()) {
    FaultPlan plan = config_.faults;
    plan.seed = plan.seed != 0 ? plan.seed : config_.seed;
    injector_ = std::make_unique<FaultInjector>(machine_->sim(), plan);
    // Steal bursts act on the machine directly (pCPUs lost to other pools); the
    // delivery faults bite inside the primary guest's NotifyVcpu seam (armed
    // below); the rest of the fault kinds bite at the channel/daemon/balancer
    // hooks further down.
    injector_->on_transition = [this](const FaultEvent& ev, bool began) {
      if (ev.kind == FaultKind::kStealBurst) {
        const bool active = injector_->Active(FaultKind::kStealBurst);
        machine_->SetStolenPcpus(
            active ? static_cast<int>(injector_->Magnitude(FaultKind::kStealBurst))
                   : 0);
      }
      // A closing kPortMask window flushes the primary's coalesced pending bits.
      primary_kernel_->OnFaultTransition(ev, began);
    };
    // The delivery fault domain scopes to the VM under test: background VMs'
    // notifications stay perfect (their kernels never see the injector).
    primary_kernel_->set_fault_injector(injector_.get());
    injector_->Arm();
  }

  if (PolicyUsesVscale(config_.policy)) {
    // The ticker keeps its measured defaults; hardening only layers the
    // wait-demand cap on top (0 leaves the computation bit-identical).
    ExtendabilityOptions ticker_options{.rounding = VcpuRounding::kNearest,
                                        .demand_based = true,
                                        .releaser_margin = 0.85};
    ticker_options.waited_cap_ratio = config_.hardening.waited_cap_ratio;
    ticker_ = std::make_unique<ExtendabilityTicker>(*machine_, /*period=*/0,
                                                    ticker_options);
    ticker_->Start();
    DaemonConfig dc = config_.daemon;
    dc.plausibility_clamp =
        dc.plausibility_clamp || config_.hardening.plausibility_clamp;
    daemon_ = std::make_unique<VscaleDaemon>(*primary_kernel_, *machine_, dc);
    daemon_->set_fault_injector(injector_.get());
    daemon_->Start();
    if (config_.enable_watchdog) {
      WatchdogConfig wc = config_.watchdog;
      if (wc.safe_vcpu_floor <= 0) {
        wc.safe_vcpu_floor = config_.daemon.safe_vcpu_floor;
      }
      watchdog_ = std::make_unique<VscaleWatchdog>(*primary_kernel_, *daemon_, wc);
      watchdog_->Start();
    }
    if (config_.hardening.reconciler) {
      reconciler_ = std::make_unique<VscaleReconciler>(
          *primary_kernel_, *machine_, daemon_.get(), config_.reconciler);
      reconciler_->Start();
      if (watchdog_ != nullptr) {
        watchdog_->set_reconciler(reconciler_.get());
      }
    }
    // Antagonists that asked for a daemon get one: an inflated extendability
    // only becomes CPU theft once a daemon grows the attacker, which is the
    // end-to-end path the plausibility clamp is measured against.
    for (size_t i = 0; i < antagonist_kernels_.size(); ++i) {
      if (!config_.antagonists[i].run_daemon) {
        continue;
      }
      auto d = std::make_unique<VscaleDaemon>(*antagonist_kernels_[i],
                                              *machine_, dc);
      d->set_fault_injector(injector_.get());
      d->Start();
      background_daemons_.push_back(std::move(d));
    }
  }
}

Testbed::~Testbed() {
  const Observers& obs = config_.observers;
  if (obs.stall != nullptr) {
    // Close the stall timeline at the machine's final time; its stall_dominant.*
    // coverage points land in this run's map before the map is published.
    obs.stall->FinishRun(sim().Now());
  }
  if (obs.metrics != nullptr) {
    PublishMetrics(*obs.metrics);
  }
}

void Testbed::PublishMetrics(MetricsRegistry& reg) const {
  // The prefix separates policies when one registry collects several testbeds;
  // same-policy reruns overwrite (last run wins).
  const std::string prefix = SanitizeMetricName(ToString(config_.policy)) + ".";
  PublishMachineMetrics(reg, *machine_, prefix);
  if (injector_ != nullptr) {
    reg.Counter(prefix + "faults.events_started") = injector_->events_started();
    reg.Counter(prefix + "faults.events_ended") = injector_->events_ended();
    reg.Counter(prefix + "hv.stolen_ns_total") = machine_->total_stolen_ns();
  }
  if (const VscaleDaemon* d = daemon_.get()) {
    reg.Counter(prefix + "vscale.cycles") = d->cycles();
    reg.Counter(prefix + "vscale.read_retries") = d->read_retries();
    reg.Counter(prefix + "vscale.apply_retries") = d->apply_retries();
    reg.Counter(prefix + "vscale.stale_detections") = d->stale_detections();
    reg.Counter(prefix + "vscale.stale_held_cycles") = d->stale_held_cycles();
    reg.Counter(prefix + "vscale.degradations") = d->degradations();
    reg.Counter(prefix + "vscale.resumes") = d->resumes();
    reg.Counter(prefix + "vscale.crashes") = d->crashes();
    reg.Counter(prefix + "vscale.restarts") = d->restarts();
    reg.Counter(prefix + "vscale.clamped_cycles") = d->clamped_cycles();
    reg.Counter(prefix + "vscale.reads_failed") = d->channel().reads_failed();
    reg.Counter(prefix + "vscale.torn_rejected") = d->channel().torn_rejected();
    reg.Counter(prefix + "vscale.freeze_op_failures") = d->balancer().op_failures();
    reg.Counter(prefix + "vscale.freeze_op_hangs") = d->balancer().op_hangs();
  }
  if (watchdog_ != nullptr) {
    reg.Counter(prefix + "vscale.watchdog_trips") = watchdog_->trips();
    reg.Counter(prefix + "vscale.watchdog_recoveries") = watchdog_->recoveries();
  }
  if (reconciler_ != nullptr) {
    reg.Counter(prefix + "vscale.reconcile.cycles") = reconciler_->cycles();
    reg.Counter(prefix + "vscale.reconcile.divergence_detected") =
        reconciler_->divergence_detected();
    reg.Counter(prefix + "vscale.reconcile.repairs") = reconciler_->repairs();
  }
  if (config_.observers.stall != nullptr) {
    config_.observers.stall->PublishMetrics(reg, prefix);
  }
  if (config_.observers.coverage != nullptr) {
    config_.observers.coverage->PublishMetrics(reg, prefix);
  }
}

bool Testbed::RunUntil(const std::function<bool()>& stop, TimeNs deadline) {
  return sim().RunUntilCondition(stop, deadline);
}

}  // namespace vscale
