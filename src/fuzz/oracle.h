// The fuzzer's oracle battery: runs a Scenario under full checking and decides
// whether the stack behaved. A scenario fails on any of:
//
//   kInvariantViolation   a VS_REQUIRE / VS_INVARIANT tripped anywhere in the
//                         run (captured, not aborted, so the fuzz loop and the
//                         shrinker can keep going)
//   kStallNonExhaustive   the StallAccountant's per-tick exhaustiveness check
//                         found simulated time outside the bucket partition
//   kNotificationLost     the run ended with the freeze protocol's views torn
//                         apart: guest cpu_freeze_mask vs hypervisor frozen
//                         bits disagree, a freeze handshake is still wedged
//                         mid-evacuation with its resend budget spent, or a
//                         vCPU sits hypervisor-blocked with runnable threads
//                         queued (a lost wakeup nothing rescued). Armed only
//                         when the scenario plans a delivery fault
//                         (kIpiDrop/kIpiDup/kIpiDelay/kPortMask) AND arms any
//                         delivery hardening — an unhardened kernel wedging is
//                         the documented baseline, a hardened one must
//                         reconverge (docs/FAULTS.md)
//   kNonTermination       the workload mix did not complete by the scenario
//                         horizon (hang, livelock, or a collapsed scheduler)
//   kWatchdogNoRecovery   the daemon-liveness watchdog tripped and the stack
//                         never recovered by end of run
//   kFairnessViolation    an antagonist domain ended the run measurably above
//                         its weight-fair entitlement while victims starved,
//                         with the scenario's hardening armed — a mitigation
//                         that should have neutralized the attack did not
//                         (docs/ADVERSARIAL.md; armed only when the scenario
//                         has antagonists AND any HardeningConfig flag on)
//   kDigestDivergence     two runs of the identical scenario produced
//                         different StateDigests — the determinism contract
//                         itself broke
//
// Verdicts are ordered by diagnosis precedence: an invariant trip explains a
// hang better than the hang explains itself, so RunOracle reports the first
// one in the list above. docs/FUZZING.md catalogues what each verdict means
// and how to triage it.

#ifndef VSCALE_SRC_FUZZ_ORACLE_H_
#define VSCALE_SRC_FUZZ_ORACLE_H_

#include <cstdint>
#include <string>

#include "src/fuzz/scenario.h"
#include "src/obs/coverage.h"

namespace vscale {

enum class OracleVerdict {
  kPass = 0,
  kInvariantViolation,
  kStallNonExhaustive,
  kNotificationLost,
  kNonTermination,
  kWatchdogNoRecovery,
  kFairnessViolation,
  kDigestDivergence,
};

// Stable lowercase tokens ("pass", "invariant-violation", ...): printed by
// fuzz_run and matched by the shrinker's same-verdict acceptance test.
const char* ToString(OracleVerdict v);

struct OracleReport {
  OracleVerdict verdict = OracleVerdict::kPass;
  // Human-readable diagnosis: the first invariant message, the digest pair,
  // the watchdog counters — whatever the verdict needs to be actionable.
  std::string detail;
  uint64_t digest1 = 0;
  uint64_t digest2 = 0;
  // Virtual completion time of the first run (== horizon when it hung).
  TimeNs end_time = 0;
  // The first run's semantic coverage vector (src/obs/coverage.h): which
  // catalogue points the scenario actually reached. Feeds the fuzzer's
  // frontier merge and fuzz_run --replay's coverage line.
  CoverageVector coverage;
  // False iff the first run passed every check and the second run's coverage
  // vector differed from it — the map broke its own determinism contract even
  // if the digests agreed. True (and digest2 0) when the first run failed a
  // check, whose verdict discards the second run.
  bool coverage_stable = true;

  bool failed() const { return verdict != OracleVerdict::kPass; }
};

// Runs `s` twice (the digest double-run) with all oracles armed and returns
// the first failing verdict, or kPass. The scenario must be Validate()-legal.
// State contract: the two runs go on two threads, run 1 on the caller and
// run 2 on a worker joined before the call returns; an exception from either
// reaches the caller. Each run owns its testbed, stall accountant, coverage
// map and violation capture (src/base/check.h), touches no process-wide
// observer, and restores its thread's invariant handler. The verdict battery
// reads run 1; when it fails, run 2's outcome is discarded. The canary setters
// below must not be called while an oracle call is in flight.
OracleReport RunOracle(const Scenario& s);

// Single-run coverage probe: runs `s` once with every observer armed and
// returns its coverage vector, skipping the verdict battery and the digest
// double-run. Half the cost of RunOracle — what the coverage-guided sweep and
// fuzz_run --cov-check use to measure a budget's frontier.
CoverageVector RunCoverageOnce(const Scenario& s);

// Test-only planted bug ("canary"): when enabled, the oracle deliberately
// perturbs the second run's seed whenever the scenario's fault plan contains a
// daemon-crash window, manufacturing a digest divergence. The fuzz_canary
// ctest entry uses it to prove end-to-end that the fuzzer finds a real failure
// and the shrinker minimizes it to a replayable repro — exercising the find/
// shrink/serialize pipeline itself, not the simulator. Never enabled outside
// tests (fuzz_run --canary).
void SetFuzzCanary(bool enabled);
bool FuzzCanaryEnabled();

// Second planted bug, for the fairness oracle: when enabled, RunScenarioOnce
// strips every hardening flag from scenarios that carry antagonists while the
// oracle still considers the hardening armed — so a known attack lands and
// kFairnessViolation must fire. fuzz_run --fairness-canary uses it to prove
// the fairness oracle is not blind; independent of the digest canary above so
// the two end-to-end tests cannot mask each other.
void SetFairnessCanary(bool enabled);

// The entitlement slack the fairness oracle tolerates before calling an
// overage a violation (25%): generous enough for BOOST/settle timing noise on
// short runs, far below what a working attack yields (2-4x entitlement).
inline constexpr double kFairnessEps = 0.25;

}  // namespace vscale

#endif  // VSCALE_SRC_FUZZ_ORACLE_H_
