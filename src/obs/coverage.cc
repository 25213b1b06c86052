#include "src/obs/coverage.h"

#include <cstdlib>
#include <istream>
#include <ostream>

#include "src/base/metrics_registry.h"

namespace vscale {

namespace {

// The documented point catalogue, enum order (docs/FUZZING.md). The cov-docs
// lint rule keys on this table: every name here must appear in the docs.
const char* const kCoverPointNames[kNumCoveragePoints] = {
    "fault.channel_stale",
    "fault.channel_garbled",
    "fault.channel_fail",
    "fault.latency_spike",
    "fault.daemon_stall",
    "fault.daemon_crash",
    "fault.freeze_fail",
    "fault.freeze_hang",
    "fault.steal_burst",
    "fault.ipi_drop",
    "fault.ipi_dup",
    "fault.ipi_delay",
    "fault.port_mask",
    "daemon.degraded",
    "daemon.resumed",
    "daemon.crashed",
    "daemon.restarted",
    "daemon.stale_hold",
    "watchdog.trip",
    "watchdog.recovery",
    "watchdog.trip_degraded",
    "stall_dominant.running",
    "stall_dominant.runnable_waiting_pcpu",
    "stall_dominant.lhp_spinning",
    "stall_dominant.futex_blocked",
    "stall_dominant.ipi_in_flight",
    "stall_dominant.frozen",
    "stall_dominant.stolen",
    "stall_dominant.idle",
    "sched.boost_denied",
    "hardening.clamp_fired",
    "channel.torn_read_rejected",
    "shape.domains_1",
    "shape.domains_2_4",
    "shape.domains_5_plus",
    "shape.vcpus_small",
    "shape.vcpus_large",
    "shape.dedicated",
    "shape.consolidated",
    "shape.policy_baseline",
    "shape.policy_baseline_pvlock",
    "shape.policy_vscale",
    "shape.policy_vscale_pvlock",
    "shape.antagonist",
    "shape.hardened",
    "pair.channel_stale_degraded",
    "pair.channel_garbled_degraded",
    "pair.channel_fail_degraded",
    "pair.latency_spike_degraded",
    "pair.daemon_stall_degraded",
    "pair.daemon_crash_degraded",
    "pair.freeze_fail_degraded",
    "pair.freeze_hang_degraded",
    "pair.steal_burst_degraded",
    "pair.ipi_drop_degraded",
    "pair.ipi_dup_degraded",
    "pair.ipi_delay_degraded",
    "pair.port_mask_degraded",
    "pair.channel_stale_crashed",
    "pair.channel_garbled_crashed",
    "pair.channel_fail_crashed",
    "pair.latency_spike_crashed",
    "pair.daemon_stall_crashed",
    "pair.daemon_crash_crashed",
    "pair.freeze_fail_crashed",
    "pair.freeze_hang_crashed",
    "pair.steal_burst_crashed",
    "pair.ipi_drop_crashed",
    "pair.ipi_dup_crashed",
    "pair.ipi_delay_crashed",
    "pair.port_mask_crashed",
    "pair.ipi_drop_freeze_inflight",
    "pair.ipi_dup_freeze_inflight",
    "pair.ipi_delay_freeze_inflight",
    "pair.port_mask_freeze_inflight",
    "reconcile.divergence",
    "reconcile.repair",
    "reconcile.converged",
    "hardening.freeze_resend",
    "hardening.tick_rescue",
    "hardening.ipi_dedup",
};

// FaultKind block widths; mirrors kNumFaultKinds without importing the enum.
constexpr int kFaultKinds = 13;
// Width of the delivery-fault sub-block (kIpiDrop..kPortMask).
constexpr int kDeliveryFaultKinds = 4;

}  // namespace

const char* ToString(CoveragePoint p) {
  const int i = static_cast<int>(p);
  if (i < 0 || i >= kNumCoveragePoints) return "invalid";
  return kCoverPointNames[i];
}

bool ParseCoveragePoint(const std::string& s, CoveragePoint* out) {
  for (int i = 0; i < kNumCoveragePoints; ++i) {
    if (s == kCoverPointNames[i]) {
      *out = static_cast<CoveragePoint>(i);
      return true;
    }
  }
  return false;
}

int CoveredPoints(const CoverageVector& v) {
  int covered = 0;
  for (const int64_t c : v) {
    if (c > 0) ++covered;
  }
  return covered;
}

void MergeCoverage(CoverageVector* into, const CoverageVector& from) {
  if (into->size() < from.size()) {
    into->resize(from.size(), 0);
  }
  for (size_t i = 0; i < from.size(); ++i) {
    (*into)[i] += from[i];
  }
}

std::string CoverageSummary(const CoverageVector& v) {
  return "coverage " + std::to_string(CoveredPoints(v)) + "/" +
         std::to_string(kNumCoveragePoints) + " points";
}

void WriteCoverageText(std::ostream& os, const CoverageVector& v) {
  os << "vscale-coverage v1\n";
  for (int i = 0; i < kNumCoveragePoints; ++i) {
    const int64_t c = i < static_cast<int>(v.size()) ? v[static_cast<size_t>(i)] : 0;
    os << kCoverPointNames[i] << ' ' << c << '\n';
  }
}

bool ParseCoverageText(std::istream& is, CoverageVector* out,
                       std::string* error) {
  out->assign(kNumCoveragePoints, 0);
  std::string line;
  int lineno = 0;
  bool saw_header = false;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != "vscale-coverage v1") {
        *error = "line " + std::to_string(lineno) +
                 ": expected 'vscale-coverage v1' header, got '" + line + "'";
        return false;
      }
      saw_header = true;
      continue;
    }
    const size_t sp = line.find(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
      *error = "line " + std::to_string(lineno) +
               ": expected '<point-name> <count>', got '" + line + "'";
      return false;
    }
    const std::string name = line.substr(0, sp);
    CoveragePoint p;
    if (!ParseCoveragePoint(name, &p)) {
      *error = "line " + std::to_string(lineno) + ": unknown coverage point '" +
               name + "' (a frontier from a newer catalogue?)";
      return false;
    }
    char* end = nullptr;
    const long long c = std::strtoll(line.c_str() + sp + 1, &end, 10);
    if (end == line.c_str() + sp + 1 || *end != '\0' || c < 0) {
      *error = "line " + std::to_string(lineno) +
               ": bad count for '" + name + "': '" + line.substr(sp + 1) + "'";
      return false;
    }
    (*out)[static_cast<size_t>(p)] = c;
  }
  if (!saw_header) {
    *error = "empty input: missing 'vscale-coverage v1' header";
    return false;
  }
  return true;
}

CoverageMap::CoverageMap() = default;

void CoverageMap::BeginRun() {
  for (int64_t& c : counts_) {
    c = 0;
  }
  daemon_degraded_ = false;
  daemon_crashed_ = false;
}

void CoverageMap::Record(CoveragePoint p) {
  const int i = static_cast<int>(p);
  if (i < 0 || i >= kNumCoveragePoints) return;
  ++counts_[i];
}

void CoverageMap::OnFaultBegin(int fault_kind) {
  if (fault_kind < 0 || fault_kind >= kFaultKinds) return;
  Record(static_cast<CoveragePoint>(
      static_cast<int>(CoveragePoint::kFaultChannelStale) + fault_kind));
  if (daemon_degraded_) {
    Record(static_cast<CoveragePoint>(
        static_cast<int>(CoveragePoint::kPairChannelStaleDegraded) +
        fault_kind));
  }
  if (daemon_crashed_) {
    Record(static_cast<CoveragePoint>(
        static_cast<int>(CoveragePoint::kPairChannelStaleCrashed) +
        fault_kind));
  }
}

void CoverageMap::OnDaemonDegrade() {
  daemon_degraded_ = true;
  Record(CoveragePoint::kDaemonDegraded);
}

void CoverageMap::OnDaemonResume() {
  daemon_degraded_ = false;
  Record(CoveragePoint::kDaemonResumed);
}

void CoverageMap::OnDaemonCrash() {
  daemon_crashed_ = true;
  Record(CoveragePoint::kDaemonCrashed);
}

void CoverageMap::OnDaemonRestart() {
  daemon_crashed_ = false;
  // A restarted daemon is a fresh process: it forgot it was degraded.
  daemon_degraded_ = false;
  Record(CoveragePoint::kDaemonRestarted);
}

void CoverageMap::OnDaemonStaleHold() { Record(CoveragePoint::kDaemonStaleHold); }

void CoverageMap::OnWatchdogTrip() {
  Record(CoveragePoint::kWatchdogTrip);
  if (daemon_degraded_ || daemon_crashed_) {
    Record(CoveragePoint::kWatchdogTripDegraded);
  }
}

void CoverageMap::OnWatchdogRecovery() {
  Record(CoveragePoint::kWatchdogRecovery);
}

void CoverageMap::OnDeliveryFaultDuringFreeze(int idx) {
  if (idx < 0 || idx >= kDeliveryFaultKinds) return;
  Record(static_cast<CoveragePoint>(
      static_cast<int>(CoveragePoint::kPairIpiDropFreezeInflight) + idx));
}

void CoverageMap::OnFreezeResend() {
  Record(CoveragePoint::kHardeningFreezeResend);
}

void CoverageMap::OnTickRescue() { Record(CoveragePoint::kHardeningTickRescue); }

void CoverageMap::OnIpiDedup() { Record(CoveragePoint::kHardeningIpiDedup); }

void CoverageMap::OnReconcileDivergence() {
  Record(CoveragePoint::kReconcileDivergence);
}

void CoverageMap::OnReconcileRepair() {
  Record(CoveragePoint::kReconcileRepair);
}

void CoverageMap::OnReconcileConverged() {
  Record(CoveragePoint::kReconcileConverged);
}

void CoverageMap::OnStallDominant(StallBucket b) {
  const int i = static_cast<int>(b);
  if (i < 0 || i >= kStallBucketCount) return;
  Record(static_cast<CoveragePoint>(
      static_cast<int>(CoveragePoint::kDominantRunning) + i));
}

std::vector<CoveragePoint> ShapePoints(int policy, int domains,
                                       int primary_vcpus, bool dedicated,
                                       bool antagonist, bool hardened) {
  std::vector<CoveragePoint> points = {
      domains <= 1   ? CoveragePoint::kShapeDomains1
      : domains <= 4 ? CoveragePoint::kShapeDomains2To4
                     : CoveragePoint::kShapeDomains5Plus,
      primary_vcpus <= 4 ? CoveragePoint::kShapeVcpusSmall
                         : CoveragePoint::kShapeVcpusLarge,
      dedicated ? CoveragePoint::kShapeDedicated
                : CoveragePoint::kShapeConsolidated,
  };
  // The shape.policy_* block mirrors the Policy enum order.
  if (policy >= 0 && policy < 4) {
    points.push_back(static_cast<CoveragePoint>(
        static_cast<int>(CoveragePoint::kShapePolicyBaseline) + policy));
  }
  if (antagonist) points.push_back(CoveragePoint::kShapeAntagonist);
  if (hardened) points.push_back(CoveragePoint::kShapeHardened);
  return points;
}

void CoverageMap::RecordShape(int policy, int domains, int primary_vcpus,
                              bool dedicated, bool antagonist, bool hardened) {
  for (const CoveragePoint p : ShapePoints(policy, domains, primary_vcpus,
                                           dedicated, antagonist, hardened)) {
    Record(p);
  }
}

int64_t CoverageMap::count(CoveragePoint p) const {
  const int i = static_cast<int>(p);
  if (i < 0 || i >= kNumCoveragePoints) return 0;
  return counts_[i];
}

int CoverageMap::covered_points() const {
  int covered = 0;
  for (const int64_t c : counts_) {
    if (c > 0) ++covered;
  }
  return covered;
}

CoverageVector CoverageMap::Vector() const {
  return CoverageVector(counts_, counts_ + kNumCoveragePoints);
}

void CoverageMap::PublishMetrics(MetricsRegistry& registry,
                                 const std::string& prefix) const {
  for (int i = 0; i < kNumCoveragePoints; ++i) {
    registry.Counter(prefix + "cov." + kCoverPointNames[i]) = counts_[i];
  }
}

}  // namespace vscale
