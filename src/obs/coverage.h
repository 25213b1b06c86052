// CoverageMap: a semantic coverage map over the scenario state space.
//
// The fuzzer (docs/FUZZING.md) draws scenarios blindly, so it keeps re-visiting
// the easy regions of the state space — freeze/unfreeze, LHP, futex storms —
// while rare compound states (a watchdog trip *during* degradation, an
// antagonist x hardening x fault overlap) go unvisited for nights. The
// CoverageMap answers "which semantic states did this run actually reach?" as
// a fixed, documented catalogue of named coverage points:
//
//   fault.*           a fault kind's window opened (one point per FaultKind)
//   daemon.*          the daemon entered a degradation state (degraded,
//                     resumed, crashed, restarted, stale_hold)
//   watchdog.*        the liveness watchdog tripped / recovered, plus the
//                     compound trip-while-already-degraded state
//   stall_dominant.*  a stall bucket ended a run as some domain's dominant
//                     time sink (one point per StallBucket)
//   sched.boost_denied        the boost-budget mitigation denied a BOOST
//   hardening.clamp_fired     the plausibility clamp overrode a grow target
//   channel.torn_read_rejected  the valid-stamp check rejected a torn read
//   shape.*           scenario-shape bins: domain count, primary vCPU width,
//                     consolidation, policy, antagonist/hardening presence
//   pair.*            compound features: a fault kind injected while the
//                     daemon was already degraded / crashed, and a delivery
//                     fault landing while a freeze handshake was in flight
//   reconcile.*       the tri-state reconciler saw divergence / repaired it /
//                     audited a converged state (src/vscale/reconciler.cc)
//   hardening.freeze_resend / tick_rescue / ipi_dedup
//                     a delivery-hardening reaction actually fired
//
// Like the Tracer and the StallAccountant before it, the map is a pure
// observer: off by default, it never mutates simulation state and never
// touches an Rng, so an enabled run replays to a bit-identical StateDigest
// (tools/digest_run --cov-check is the gate). Hook sites use the VS_COVER
// macro — one predictable branch on a global bool when disabled.
//
// Because every count is derived from the deterministic event sequence, a
// run's coverage vector is itself deterministic: the same scenario yields the
// same vector forever, which is what lets tools/cov_report diff runs, merge a
// corpus into a cumulative frontier, and lets the fuzzer bias generation
// toward uncovered points (docs/FUZZING.md).

#ifndef VSCALE_SRC_OBS_COVERAGE_H_
#define VSCALE_SRC_OBS_COVERAGE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/obs/stall_accounting.h"

namespace vscale {

class MetricsRegistry;

// The fixed coverage-point catalogue. Order is the canonical vector/report
// order; names (ToString) are the documented interface (docs/FUZZING.md).
// Blocks whose order mirrors another enum say so — keep them in sync.
enum class CoveragePoint : int {
  // One point per FaultKind, same order as src/faults/fault_plan.h.
  kFaultChannelStale = 0,
  kFaultChannelGarbled,
  kFaultChannelFail,
  kFaultLatencySpike,
  kFaultDaemonStall,
  kFaultDaemonCrash,
  kFaultFreezeFail,
  kFaultFreezeHang,
  kFaultStealBurst,
  kFaultIpiDrop,
  kFaultIpiDup,
  kFaultIpiDelay,
  kFaultPortMask,
  // Daemon degradation states entered (src/vscale/daemon.cc seams).
  kDaemonDegraded,
  kDaemonResumed,
  kDaemonCrashed,
  kDaemonRestarted,
  kDaemonStaleHold,
  // Watchdog liveness transitions, plus the compound state the blind fuzzer
  // rarely reaches: a trip landing while the daemon had already degraded.
  kWatchdogTrip,
  kWatchdogRecovery,
  kWatchdogTripDegraded,
  // A stall bucket ended the run as some domain's dominant time sink; same
  // order as StallBucket (src/obs/stall_accounting.h).
  kDominantRunning,
  kDominantRunnableWaitingPcpu,
  kDominantLhpSpinning,
  kDominantFutexBlocked,
  kDominantIpiInFlight,
  kDominantFrozen,
  kDominantStolen,
  kDominantIdle,
  // Hardening / control-plane reactions (docs/ADVERSARIAL.md, docs/FAULTS.md).
  kBoostDenied,
  kClampFired,
  kTornReadRejected,
  // Scenario-shape bins, recorded once per run from the resolved testbed
  // config (domain count includes desktops and antagonists).
  kShapeDomains1,
  kShapeDomains2To4,
  kShapeDomains5Plus,
  kShapeVcpusSmall,  // primary <= 4 vCPUs
  kShapeVcpusLarge,  // primary >= 5 vCPUs
  kShapeDedicated,
  kShapeConsolidated,
  kShapePolicyBaseline,
  kShapePolicyBaselinePvlock,
  kShapePolicyVscale,
  kShapePolicyVscalePvlock,
  kShapeAntagonist,
  kShapeHardened,
  // Pair features: fault kind x daemon state at injection time, FaultKind
  // order again. "Degraded"/"crashed" is the daemon's state when the fault
  // window opens — the overlaps the motivation calls out.
  kPairChannelStaleDegraded,
  kPairChannelGarbledDegraded,
  kPairChannelFailDegraded,
  kPairLatencySpikeDegraded,
  kPairDaemonStallDegraded,
  kPairDaemonCrashDegraded,
  kPairFreezeFailDegraded,
  kPairFreezeHangDegraded,
  kPairStealBurstDegraded,
  kPairIpiDropDegraded,
  kPairIpiDupDegraded,
  kPairIpiDelayDegraded,
  kPairPortMaskDegraded,
  kPairChannelStaleCrashed,
  kPairChannelGarbledCrashed,
  kPairChannelFailCrashed,
  kPairLatencySpikeCrashed,
  kPairDaemonStallCrashed,
  kPairDaemonCrashCrashed,
  kPairFreezeFailCrashed,
  kPairFreezeHangCrashed,
  kPairStealBurstCrashed,
  kPairIpiDropCrashed,
  kPairIpiDupCrashed,
  kPairIpiDelayCrashed,
  kPairPortMaskCrashed,
  // Delivery fault landing while a freeze handshake was in flight (some cpu
  // mid-evacuation) — the compound the resend/reconciler hardening exists for.
  // kIpiDrop..kPortMask order (src/guest/kernel.cc NotifyVcpu).
  kPairIpiDropFreezeInflight,
  kPairIpiDupFreezeInflight,
  kPairIpiDelayFreezeInflight,
  kPairPortMaskFreezeInflight,
  // Tri-state reconciler edges (src/vscale/reconciler.cc).
  kReconcileDivergence,
  kReconcileRepair,
  kReconcileConverged,
  // Delivery-hardening reactions (src/guest/kernel.cc).
  kHardeningFreezeResend,
  kHardeningTickRescue,
  kHardeningIpiDedup,
};

inline constexpr int kNumCoveragePoints = 81;

// Stable dotted lowercase names ("fault.channel_stale", "shape.dedicated",
// ...): the documented interface of the catalogue, used by cov_report output,
// frontier files and the cov.* metric paths.
const char* ToString(CoveragePoint p);

// Parses a ToString() name back; returns false if `s` is not a point name.
bool ParseCoveragePoint(const std::string& s, CoveragePoint* out);

// A run's (or a merged corpus') per-point hit counts, kNumCoveragePoints long
// in enum order. Element i counts CoveragePoint(i); covered means count > 0.
using CoverageVector = std::vector<int64_t>;

// Number of points with a nonzero count. An empty vector covers nothing.
int CoveredPoints(const CoverageVector& v);

// Per-point sum of `from` into `*into` (resizing an empty `*into`).
void MergeCoverage(CoverageVector* into, const CoverageVector& from);

// One-line human summary: "coverage 23/59 points".
std::string CoverageSummary(const CoverageVector& v);

// Canonical text form, parseable by ParseCoverageText: a "vscale-coverage v1"
// header then one "name count" line per point in enum order (zeros included,
// so files stay mergeable as the catalogue is read back).
void WriteCoverageText(std::ostream& os, const CoverageVector& v);

// Strict line-oriented parse of WriteCoverageText output. Unknown point names
// are errors (a frontier from a newer catalogue); missing points parse as 0
// (a frontier from an older one). Returns false and fills `error` with a
// line-numbered message on malformed input.
bool ParseCoverageText(std::istream& is, CoverageVector* out,
                       std::string* error);

// The shape.* points a resolved testbed config lands in; shared by RecordShape
// and the generator's PredictedCoverage. `policy` is static_cast<int>(Policy).
std::vector<CoveragePoint> ShapePoints(int policy, int domains,
                                       int primary_vcpus, bool dedicated,
                                       bool antagonist, bool hardened);

class CoverageMap {
 public:
  CoverageMap();

  // The process-wide map all VS_COVER hooks feed (mirrors StallAccountant).
  static CoverageMap& Global();

  // Starts a run: clears counts and pair-tracking state, enables the gate.
  void BeginRun();
  // Disables the gate; counts stay readable until the next BeginRun/Reset.
  void FinishRun();
  // Clears everything and disables the gate (tests, oracle hygiene).
  void Reset();
  bool active() const { return active_; }

  // Generic feature counter; the stateful hooks below call it too.
  void Record(CoveragePoint p);

  // --- fault plane (src/faults/fault_injector.cc) --------------------------
  // `fault_kind` is static_cast<int>(FaultKind); obs stays below the faults
  // library, so the enum does not cross this interface. Records the fault's
  // base point plus the pair point for the daemon state tracked below.
  void OnFaultBegin(int fault_kind);

  // --- daemon degradation states (src/vscale/daemon.cc) --------------------
  void OnDaemonDegrade();
  void OnDaemonResume();
  void OnDaemonCrash();
  void OnDaemonRestart();
  void OnDaemonStaleHold();

  // --- watchdog (src/vscale/watchdog.cc) -----------------------------------
  void OnWatchdogTrip();
  void OnWatchdogRecovery();

  // --- delivery fault domain & hardening (src/guest/kernel.cc) -------------
  // `idx` is the fault kind relative to kIpiDrop (0..3), recorded when the
  // fault fires while some cpu is mid-evacuation (freeze in flight).
  void OnDeliveryFaultDuringFreeze(int idx);
  void OnFreezeResend();
  void OnTickRescue();
  void OnIpiDedup();

  // --- tri-state reconciler (src/vscale/reconciler.cc) ---------------------
  void OnReconcileDivergence();
  void OnReconcileRepair();
  void OnReconcileConverged();

  // --- stall attribution (src/obs/stall_accounting.cc, FinishRun) ----------
  void OnStallDominant(StallBucket b);

  // Scenario-shape bins, recorded once from the resolved testbed config
  // (src/workloads/testbed.cc). `policy` is static_cast<int>(Policy).
  void RecordShape(int policy, int domains, int primary_vcpus, bool dedicated,
                   bool antagonist, bool hardened);

  // --- queries / export ----------------------------------------------------
  int64_t count(CoveragePoint p) const;
  bool covered(CoveragePoint p) const { return count(p) > 0; }
  int covered_points() const;
  CoverageVector Vector() const;

  // Publishes every point as a plain counter "<prefix>cov.<name>" — the
  // per-run coverage vector's RunMetrics export (docs/OBSERVABILITY.md).
  void PublishMetrics(MetricsRegistry& registry,
                      const std::string& prefix) const;

 private:
  bool active_ = false;
  // Daemon state shadowed for the pair features; reset by BeginRun.
  bool daemon_degraded_ = false;
  bool daemon_crashed_ = false;
  int64_t counts_[kNumCoveragePoints] = {};
};

namespace obs_internal {
// Fast hook gate, mirrors CoverageMap::Global().active(). Mutated only by
// BeginRun/FinishRun/Reset.
extern bool g_cover_enabled;
}  // namespace obs_internal

// Hook sites use this macro so a disabled map costs one predictable branch and
// never evaluates its arguments' side effects beyond the call site.
#define VS_COVER(call_)                                \
  do {                                                 \
    if (::vscale::obs_internal::g_cover_enabled) {     \
      ::vscale::CoverageMap::Global().call_;           \
    }                                                  \
  } while (0)

}  // namespace vscale

#endif  // VSCALE_SRC_OBS_COVERAGE_H_
