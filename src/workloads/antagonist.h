// Scheduler antagonists: adversarial guest workloads that game the credit
// scheduler and the vScale extendability signal (docs/ADVERSARIAL.md).
//
// Each antagonist is a whole VM (its own domain + GuestKernel) running one
// attacker thread per vCPU, modeled on the theft-of-service attacks against
// credit schedulers ("Scheduler Vulnerabilities and Attacks in Cloud
// Computing", PAPERS.md):
//  * tick-evader    — binges whole accounting windows, then blocks just before
//                     the credit pass so the idle-domain top-up refills its
//                     balance for free (never weight-shared);
//  * boost-abuser   — short-sleep/wake loops so every timer wake lands with
//                     BOOST priority, queue-jumping and preempting victims;
//  * churn-attacker — rapid block/wake with near-zero consumption, thrashing
//                     run queues and inflating runnable-wait (demand) so the
//                     extendability calculation misclassifies it as a starved
//                     competitor and hands it slack;
//  * freeze-straggler — long preempt-disabled kernel critical sections that
//                     delay quiescence on the vScale freeze path.
//
// The matching mitigations live behind config flags in the hypervisor
// (MachineConfig), the extendability calculation (ExtendabilityOptions) and
// the daemon (DaemonConfig); bench/bench_antagonist.cc measures the
// before/after and tests/antagonist_test.cc pins both sides.

#ifndef VSCALE_SRC_WORKLOADS_ANTAGONIST_H_
#define VSCALE_SRC_WORKLOADS_ANTAGONIST_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/guest/kernel.h"
#include "src/guest/thread.h"
#include "src/hypervisor/machine.h"

namespace vscale {

enum class AntagonistKind {
  kTickEvader,
  kBoostAbuser,
  kChurn,
  kFreezeStraggler,
};
inline constexpr int kNumAntagonistKinds = 4;

// Display name ("tick-evader") — also the stable scenario-grammar token.
const char* ToString(AntagonistKind k);
bool ParseAntagonistKind(const std::string& token, AntagonistKind* out);

struct AntagonistConfig {
  AntagonistKind kind = AntagonistKind::kTickEvader;
  int vcpus = 2;
  // Domain weight; 0 = testbed default (weight_per_vcpu * vcpus), so an
  // antagonist is weight-fair *entitled* exactly like an honest VM of its size.
  int weight = 0;
  // Attack cycle period; 0 = kind default (tick-evader: 2 accounting windows;
  // boost-abuser/churn: ~1 ms wake cadence; freeze-straggler: 8 ms).
  TimeNs period = 0;
  // Integer percent of the cycle spent on-CPU (kind default when 0): the
  // binge fraction (tick-evader), compute duty (boost-abuser/churn) or the
  // kernel-critical-section hold fraction (freeze-straggler).
  int duty_pct = 0;
  // Give the antagonist VM its own vScale daemon (vscale policies only): an
  // inflated extendability then *grows* the attacker — the end-to-end theft
  // the daemon-side plausibility clamp exists to stop. The freeze-straggler
  // needs this, since only its own daemon ever freezes its vCPUs.
  bool run_daemon = false;

  // VS_REQUIRE-rejects nonsensical values (vcpu count out of [1, 64], negative
  // weight, negative period, duty outside [0, 100]).
  void Validate() const;

  friend bool operator==(const AntagonistConfig& a, const AntagonistConfig& b) {
    return a.kind == b.kind && a.vcpus == b.vcpus && a.weight == b.weight &&
           a.period == b.period && a.duty_pct == b.duty_pct &&
           a.run_daemon == b.run_daemon;
  }
  friend bool operator!=(const AntagonistConfig& a, const AntagonistConfig& b) {
    return !(a == b);
  }
};

// One attacking VM: spawns config.vcpus attacker threads, each pinned to its
// own vCPU so the whole domain sleeps/binges in lockstep where the attack
// needs it (tick evasion) or staggers deterministically where it does not
// (churn). Follows the SlideshowDesktop ownership pattern: the workload owns
// its ThreadBody implementations, the kernel owns the threads.
class Antagonist {
 public:
  Antagonist(GuestKernel& kernel, AntagonistConfig config, uint64_t seed);
  ~Antagonist();

  Antagonist(const Antagonist&) = delete;
  Antagonist& operator=(const Antagonist&) = delete;

  void Start();
  const AntagonistConfig& config() const { return config_; }
  // Attack cycles completed across all attacker threads (progress telemetry).
  int64_t cycles() const { return cycles_; }

 private:
  class EvaderBody;
  class BoostBody;
  class ChurnBody;
  class StragglerBody;

  GuestKernel& kernel_;
  AntagonistConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<ThreadBody>> bodies_;
  int64_t cycles_ = 0;
  bool started_ = false;
};

// --- weight-fairness accounting over a finished (or running) machine ---
// Shared by bench_antagonist, the fairness-violation oracle and the pinned
// regression tests, so all three agree on what "entitlement" means.

struct DomainFairness {
  DomainId id = 0;
  std::string name;
  int64_t weight = 0;
  TimeNs runtime = 0;   // CPU actually obtained
  TimeNs waited = 0;    // runnable-but-not-running (unmet demand)
  TimeNs fair_ns = 0;   // weight-fair slice of pool capacity over the run
  double share_of_fair = 0.0;  // runtime / fair_ns
};

struct FairnessReport {
  TimeNs capacity = 0;  // pool_pcpus * elapsed
  std::vector<DomainFairness> domains;  // machine domain order
};

FairnessReport ComputeFairness(const Machine& machine);

// The fairness-violation predicate (docs/ADVERSARIAL.md): true iff `attacker`
// obtained more than (1 + eps) * its weight-fair entitlement AND the other
// domains accumulated enough unmet demand (runnable-wait) to have absorbed the
// overage — exceeding entitlement on an otherwise-idle pool is legitimate
// work-conserving behavior, not theft. `detail` (optional) receives a
// human-readable account of the shares involved.
bool FairnessViolated(const FairnessReport& report, DomainId attacker,
                      double eps, std::string* detail);

// Windowed theft accounting, for runs whose victims are bursty. Whole-run
// aggregates cannot tell theft from work conservation when contention comes
// and goes (an attacker mopping up a quiet phase inflates its run-long share
// while victims' waits accrued in unrelated crunch phases). The probe samples
// the machine every accounting period and maintains, per attacker, a token
// bucket refilled at (1 + eps_pct/100) * its weight-fair entitlement and
// capped at the scheduler's own banking limit (one window's entitlement plus
// the +period-per-vCPU credit clamp): a burst that spends banked share passes
// (that is what credit *is*), while sustained consumption above entitlement
// drains the bucket, and the deficit — capped by how long victims were
// concurrently waiting to absorb it — accumulates as theft:
//
//   cap  = entitled(dt) + n_vcpus * period
//   bank = min(cap, bank + entitled(dt) - run_delta)
//   theft += bank < 0 ? min(-bank, victim_wait_delta) : 0   (then bank = 0)
//
// Entitlement is weight-fair against the *demand-weighted* active weight of
// the window (each domain's weight scaled by its runtime+wait over dt, capped
// at 1): a domain that slept through the window cedes its share, so the
// scheduler handing that slack to whoever can use it reads as work
// conservation, not theft.
//
// Pure observation: it reads domain counters from its own (read-only) sampling
// timer, so an attached probe never changes how the run unfolds.
// The fairness-violation oracle (src/fuzz/oracle.cc) trips when theft exceeds
// a small fraction of pool capacity; bench_antagonist reports it per cell.
class FairnessProbe {
 public:
  // Samples every machine accounting period, phase-shifted by half a period so
  // a window never ends on the credit pass it is trying to observe.
  FairnessProbe(Machine& machine, std::vector<DomainId> attackers,
                int eps_pct);
  FairnessProbe(const FairnessProbe&) = delete;
  FairnessProbe& operator=(const FairnessProbe&) = delete;

  // Accumulated theft for one attacker / the worst attacker.
  TimeNs theft(DomainId attacker) const;
  TimeNs max_theft() const;
  // Pool capacity covered by completed sample windows (n_pcpus * sampled time).
  TimeNs sampled_capacity() const { return sampled_capacity_; }

 private:
  void Sample();

  Machine& machine_;
  std::vector<DomainId> attackers_;
  int eps_pct_;
  int64_t total_weight_ = 0;
  TimeNs period_ = 0;
  Simulator::Timer sample_timer_;  // fires Sample()
  TimeNs last_now_ = 0;
  TimeNs sampled_capacity_ = 0;
  struct Snap {
    TimeNs runtime = 0;
    TimeNs waited = 0;
  };
  static constexpr TimeNs kBankUnset = kTimeNever;  // filled on first sample

  std::vector<Snap> last_;      // per machine domain index
  std::vector<TimeNs> bank_;    // per attackers_ index; spendable banked share
  std::vector<TimeNs> theft_;   // per attackers_ index
};

}  // namespace vscale

#endif  // VSCALE_SRC_WORKLOADS_ANTAGONIST_H_
