// Testbed: assembles the paper's experimental setup — one primary SMP-VM under test
// consolidated with bursty desktop VMs at ~2 vCPUs per pCPU (paper section 5.2.1) —
// under one of four policies: vanilla Xen/Linux, +pv-spinlock, vScale, vScale+pvlock.

#ifndef VSCALE_SRC_WORKLOADS_TESTBED_H_
#define VSCALE_SRC_WORKLOADS_TESTBED_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/faults/fault_injector.h"
#include "src/guest/kernel.h"
#include "src/hypervisor/machine.h"
#include "src/vscale/daemon.h"
#include "src/vscale/reconciler.h"
#include "src/vscale/ticker.h"
#include "src/vscale/watchdog.h"
#include "src/workloads/antagonist.h"
#include "src/workloads/background.h"

namespace vscale {

// The four evaluation configurations of the paper's section 5.2.1.
enum class Policy {
  kBaseline,        // vanilla Xen/Linux
  kBaselinePvlock,  // Xen/Linux + pv-spinlock
  kVscale,          // vScale
  kVscalePvlock,    // vScale + pv-spinlock
};

const char* ToString(Policy p);
bool PolicyUsesVscale(Policy p);
bool PolicyUsesPvlock(Policy p);

// Hard ceiling on a single VM's vCPU count; TestbedConfig::Validate() rejects
// anything above it. Generous against the paper's 8-vCPU guests, tight enough
// to catch a corrupted or fuzz-mutated config before it allocates the world.
inline constexpr int kMaxVcpusPerDomain = 64;

// The anti-gaming switches (docs/ADVERSARIAL.md), plumbed from one place to the
// hypervisor, the extendability ticker and every vScale daemon the testbed
// starts. Everything defaults OFF: a default-constructed config reproduces the
// stock scheduler bit-for-bit, which is what keeps the digest corpus green.
struct HardeningConfig {
  // MachineConfig::acct_time_based — consumed-time activity classification and
  // weight-fair idle credit ramp (vs. tick-evader).
  bool acct_time_based = false;
  // MachineConfig::boost_budget — BOOST grants per vCPU per accounting period,
  // 0 = unlimited (vs. boost-abuser).
  int boost_budget = 0;
  // ExtendabilityOptions::waited_cap_ratio — cap runnable-wait demand at this
  // multiple of consumed CPU, 0 = uncapped (vs. churn wait-inflation).
  double waited_cap_ratio = 0.0;
  // DaemonConfig::plausibility_clamp — cross-check grow targets against
  // guest-observed demand (vs. inflated extendability reports).
  bool plausibility_clamp = false;
  // --- delivery hardening (vs. the kIpiDrop/kIpiDup/kIpiDelay/kPortMask fault
  // domain; mirrored into the primary VM's GuestConfig — docs/FAULTS.md) ---
  // GuestConfig::ipi_dedup — absorb back-to-back duplicate resched/freeze IPIs.
  bool ipi_dedup = false;
  // GuestConfig::freeze_resend_ns — freeze-handshake quiescence deadline with
  // bounded resend/backoff; 0 = off (a lost freeze IPI wedges forever).
  TimeNs freeze_resend_ns = 0;
  // GuestConfig::tick_rescue — periodic-tick re-kick of lost resched wakeups.
  bool tick_rescue = false;
  // Arm the tri-state reconciler (src/vscale/reconciler.h) on the primary VM
  // under vScale policies; tune it via TestbedConfig::reconciler.
  bool reconciler = false;

  bool AnyEnabled() const {
    return acct_time_based || boost_budget > 0 || waited_cap_ratio > 0.0 ||
           plausibility_clamp || ipi_dedup || freeze_resend_ns > 0 ||
           tick_rescue || reconciler;
  }

  // Any delivery-layer hardening on? (the kNotificationLost oracle arms when a
  // scenario pairs a delivery fault with at least one of these).
  bool AnyDeliveryEnabled() const {
    return ipi_dedup || freeze_resend_ns > 0 || tick_rescue || reconciler;
  }

  friend bool operator==(const HardeningConfig& a, const HardeningConfig& b) {
    return a.acct_time_based == b.acct_time_based &&
           a.boost_budget == b.boost_budget &&
           a.waited_cap_ratio == b.waited_cap_ratio &&
           a.plausibility_clamp == b.plausibility_clamp &&
           a.ipi_dedup == b.ipi_dedup &&
           a.freeze_resend_ns == b.freeze_resend_ns &&
           a.tick_rescue == b.tick_rescue && a.reconciler == b.reconciler;
  }
  friend bool operator!=(const HardeningConfig& a, const HardeningConfig& b) {
    return !(a == b);
  }

  // VS_REQUIRE-rejects negative budgets/ratios.
  void Validate() const;
};

struct TestbedConfig {
  Policy policy = Policy::kBaseline;
  int primary_vcpus = 4;
  // pCPU pool; 0 = auto (12, the paper's domU pool: 16 logical cores minus 4
  // dedicated to dom0).
  int pool_pcpus = 0;
  // 0 = auto: fill to 2 vCPUs per pCPU with 2-vCPU desktops; negative = none
  // (dedicated machine, the paper's implicit reference point).
  int background_vms = 0;
  uint64_t seed = 1;
  DaemonConfig daemon;
  SlideshowConfig slideshow;
  // Machine-wide crunch/quiet phase process the desktops follow (see
  // LoadPhaseSchedule). Zero means free-running desktops with no shared phases.
  TimeNs crunch_mean = MillisecondsF(4000);
  TimeNs quiet_mean = MillisecondsF(1200);
  // Run vScale daemons inside the background VMs too. The paper's evaluation scales
  // only the VM under test; cooperative all-VM scaling is left as an extension.
  bool vscale_in_background = false;
  // Weight per vCPU so "all vCPUs are treated equally by the hypervisor scheduler".
  int weight_per_vcpu = 256;
  // Scheduled fault events (docs/FAULTS.md); empty = fault-free run. Steal bursts
  // apply to any policy; channel/daemon/freeze faults only bite under vScale.
  FaultPlan faults;
  // The daemon-liveness watchdog, armed for vScale policies (no daemon, no watchdog).
  WatchdogConfig watchdog;
  bool enable_watchdog = true;
  // Tri-state reconciler tuning; constructed only when hardening.reconciler is
  // set (and the policy runs vScale), so stock runs schedule nothing extra.
  ReconcilerConfig reconciler;
  // Stall-attribution accounting (docs/OBSERVABILITY.md). Off by default; like
  // tracing it never mutates simulation state, so an enabled run digests
  // bit-identically to a disabled one (tools/digest_run --stall-check).
  bool stall_accounting = false;
  // Semantic coverage map (docs/FUZZING.md). Off by default; a pure observer
  // like stall accounting, so an enabled run digests bit-identically to a
  // disabled one (tools/digest_run --cov-check).
  bool coverage = false;
  // Antagonist VMs joining the pool beside the desktops, one domain each, in
  // order (docs/ADVERSARIAL.md). Empty = the stock benign testbed.
  std::vector<AntagonistConfig> antagonists;
  // Scheduler/daemon anti-gaming mitigations; all default OFF.
  HardeningConfig hardening;

  // Rejects nonsensical values through VS_REQUIRE (always on, every build
  // flavour — see src/base/check.h): non-positive or absurd vCPU counts,
  // negative pCPU pools (0 still means auto), bad weights/phase means, and
  // malformed programmatic fault events that never went through the parser.
  // The Testbed constructor validates the *resolved* config (after auto-fill),
  // so a zero-pCPU pool can no longer fail deep inside the run; callers that
  // assemble configs by hand (the fuzzer, tests) may call it directly.
  void Validate() const;
};

// The machine a config builds once its auto values resolve: pool_pcpus <= 0
// means the paper's 12-pCPU pool, background_vms == 0 fills to ~2 vCPUs per
// pCPU with 2-vCPU desktops, and a negative count means a dedicated machine.
struct ResolvedTopology {
  int pool_pcpus;
  int background_vms;
  int domains;  // primary + desktops + antagonists
};
ResolvedTopology ResolveTopology(const TestbedConfig& config);

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  Machine& machine() { return *machine_; }
  Simulator& sim() { return machine_->sim(); }
  GuestKernel& primary() { return *primary_kernel_; }
  Domain& primary_domain() { return machine_->domain(0); }
  const TestbedConfig& config() const { return config_; }
  VscaleDaemon* daemon() { return daemon_.get(); }
  ExtendabilityTicker* ticker() { return ticker_.get(); }
  FaultInjector* faults() { return injector_.get(); }
  VscaleWatchdog* watchdog() { return watchdog_.get(); }
  VscaleReconciler* reconciler() { return reconciler_.get(); }

  // Runs until `stop` returns true or `deadline` passes; returns whether stop fired.
  bool RunUntil(const std::function<bool()>& stop, TimeNs deadline);

  // --- antagonist access (empty unless config.antagonists is set) ---
  int n_antagonists() const { return static_cast<int>(antagonists_.size()); }
  Antagonist& antagonist(int i) { return *antagonists_[static_cast<size_t>(i)]; }
  // The hypervisor domain backing antagonist i (primary and desktops precede it).
  Domain& antagonist_domain(int i) {
    return machine_->domain(antagonist_domain_ids_[static_cast<size_t>(i)]);
  }
  const std::vector<DomainId>& antagonist_domain_ids() const {
    return antagonist_domain_ids_;
  }

  bool stall_enabled() const { return stall_enabled_; }
  bool coverage_enabled() const { return cover_enabled_; }
  // Process-wide default for stall accounting, so harness flag parsing
  // (bench/bench_common.h) can enable it without threading a field through
  // every benchmark's config construction. OR-ed with config.stall_accounting.
  static void SetStallAccountingDefault(bool enabled);
  // Same mechanism for the coverage map; OR-ed with config.coverage.
  static void SetCoverageDefault(bool enabled);

  // --- metric helpers over the primary VM ---
  TimeNs PrimaryWaitTime() const { return machine_->domain(0).TotalWait(); }
  TimeNs PrimaryRunTime() const { return machine_->domain(0).TotalRuntime(); }
  int64_t PrimaryReschedIpis() const;
  int64_t PrimaryTimerInts() const;

 private:
  TestbedConfig config_;
  bool stall_enabled_ = false;
  bool cover_enabled_ = false;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<GuestKernel> primary_kernel_;
  std::vector<std::unique_ptr<GuestKernel>> background_kernels_;
  std::unique_ptr<LoadPhaseSchedule> phases_;
  std::vector<std::unique_ptr<SlideshowDesktop>> desktops_;
  std::vector<std::unique_ptr<GuestKernel>> antagonist_kernels_;
  std::vector<std::unique_ptr<Antagonist>> antagonists_;
  std::vector<DomainId> antagonist_domain_ids_;
  std::unique_ptr<ExtendabilityTicker> ticker_;
  std::unique_ptr<VscaleDaemon> daemon_;
  std::vector<std::unique_ptr<VscaleDaemon>> background_daemons_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<VscaleWatchdog> watchdog_;
  std::unique_ptr<VscaleReconciler> reconciler_;
};

}  // namespace vscale

#endif  // VSCALE_SRC_WORKLOADS_TESTBED_H_
