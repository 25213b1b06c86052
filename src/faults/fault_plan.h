// FaultPlan: a declarative schedule of fault events to inject into a run.
//
// Each event names a fault kind, an absolute virtual start time, a duration and an
// optional magnitude (kind-specific: latency multiplier, stolen pCPU count, ...).
// The plan is pure data — the FaultInjector arms it on the simulation clock — so a
// plan can be built programmatically, parsed from a spec string (quickstart's
// --faults flag, digest_run scenarios) and replayed bit-identically: fault timing
// rides the same deterministic EventQueue as everything else, and any randomness a
// fault needs comes from an Rng forked from the plan seed (docs/FAULTS.md).

#ifndef VSCALE_SRC_FAULTS_FAULT_PLAN_H_
#define VSCALE_SRC_FAULTS_FAULT_PLAN_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/time.h"

namespace vscale {

// Every injectable fault, each hooked at one existing seam of the vScale stack.
// The site and the hardening response are catalogued in docs/FAULTS.md.
enum class FaultKind {
  kChannelStale,   // VscaleChannel::Read returns the payload frozen at fault start
  kChannelGarbled, // payload value perturbed without a matching valid-stamp (torn read)
  kChannelFail,    // the read syscall/hypercall fails outright
  kLatencySpike,   // channel syscall+hypercall latency multiplied by `magnitude`
  kDaemonStall,    // the daemon misses cycles (starved thread): no reads, no heartbeat
  kDaemonCrash,    // daemon dead until the fault window ends (scheduled restart)
  kFreezeFail,     // freeze/unfreeze ops fail after charging their syscall entry cost
  kFreezeHang,     // freeze/unfreeze ops complete but cost `magnitude`x the normal time
  kStealBurst,     // `magnitude` pCPUs stolen from the pool (other-pool interference)
  kIpiDrop,        // guest-interior notification silently lost (send charged, no delivery)
  kIpiDup,         // notification delivered `magnitude` extra times back to back
  kIpiDelay,       // delivery deferred by `magnitude`x the ipi_deliver cost
  kPortMask,       // evtchn port `magnitude - 1` stays masked; pending coalesces,
                   // one flush per (cpu, port) when the window closes
};

// Derived, not hand-maintained: appending an enumerator above grows every
// per-kind array (FaultInjector::active_, the coverage fault block) in lockstep.
inline constexpr FaultKind kMaxFaultKind = FaultKind::kPortMask;
inline constexpr int kNumFaultKinds = static_cast<int>(kMaxFaultKind) + 1;

// Constexpr so the static_assert below can prove at compile time that every
// enumerator has a spec token — a new kind without one fails the build instead
// of silently rendering "?" and breaking the Parse(ToString()) round-trip.
constexpr const char* ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kChannelStale:
      return "chan-stale";
    case FaultKind::kChannelGarbled:
      return "chan-garble";
    case FaultKind::kChannelFail:
      return "chan-fail";
    case FaultKind::kLatencySpike:
      return "latency";
    case FaultKind::kDaemonStall:
      return "stall";
    case FaultKind::kDaemonCrash:
      return "crash";
    case FaultKind::kFreezeFail:
      return "freeze-fail";
    case FaultKind::kFreezeHang:
      return "freeze-hang";
    case FaultKind::kStealBurst:
      return "steal";
    case FaultKind::kIpiDrop:
      return "ipi-drop";
    case FaultKind::kIpiDup:
      return "ipi-dup";
    case FaultKind::kIpiDelay:
      return "ipi-delay";
    case FaultKind::kPortMask:
      return "port-mask";
  }
  return "?";
}

namespace fault_internal {
constexpr bool AllFaultKindsNamed() {
  for (int i = 0; i < kNumFaultKinds; ++i) {
    const char* name = ToString(static_cast<FaultKind>(i));
    if (name == nullptr || name[0] == '?') {
      return false;
    }
  }
  return true;
}
}  // namespace fault_internal

static_assert(fault_internal::AllFaultKindsNamed(),
              "ToString(FaultKind) must cover every enumerator");

// The guest-interior delivery fault domain (src/guest/kernel.cc NotifyVcpu):
// the kinds the delivery hardening suite and the kNotificationLost oracle key
// on, as one predicate so the block stays contiguous by construction.
constexpr bool IsDeliveryFault(FaultKind kind) {
  return kind == FaultKind::kIpiDrop || kind == FaultKind::kIpiDup ||
         kind == FaultKind::kIpiDelay || kind == FaultKind::kPortMask;
}

struct FaultEvent {
  FaultKind kind = FaultKind::kChannelFail;
  TimeNs start = 0;     // absolute virtual time
  TimeNs duration = 0;  // fault active in [start, start + duration)
  // Kind-specific intensity; <= 0 selects the kind's default (see DefaultMagnitude).
  int64_t magnitude = 0;

  TimeNs end() const { return start + duration; }

  friend bool operator==(const FaultEvent& a, const FaultEvent& b) {
    return a.kind == b.kind && a.start == b.start && a.duration == b.duration &&
           a.magnitude == b.magnitude;
  }
  friend bool operator!=(const FaultEvent& a, const FaultEvent& b) {
    return !(a == b);
  }
};

// The per-kind meaning of a defaulted magnitude.
int64_t DefaultMagnitude(FaultKind kind);

struct FaultPlan {
  // Seeds the injector's forked Rng (payload garbling picks deterministic noise).
  uint64_t seed = 1;
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  bool HasDeliveryFault() const {
    return std::any_of(events.begin(), events.end(),
                       [](const FaultEvent& ev) { return IsDeliveryFault(ev.kind); });
  }
  FaultPlan& Add(FaultKind kind, TimeNs start, TimeNs duration,
                 int64_t magnitude = 0) {
    events.push_back(FaultEvent{kind, start, duration, magnitude});
    return *this;
  }

  // Canonical spec-string form of the event schedule, parseable by Parse():
  // each time renders in the largest unit (s/ms/us/ns) that divides it exactly,
  // magnitudes render only when explicitly set (> 0). The seed is carried
  // separately (scenario files serialize it as their own field), so
  //   Parse(p.ToString(), &q) && q.events == p.events
  // holds for every plan — the round-trip the fuzz shrinker rests on.
  std::string ToString() const;

  // Member-form of ParseFaultPlan below: replaces `out`'s events (preserving
  // its seed) on success, leaves it untouched and fills *error on failure.
  static bool Parse(const std::string& spec, FaultPlan* out, std::string* error);

  friend bool operator==(const FaultPlan& a, const FaultPlan& b) {
    return a.seed == b.seed && a.events == b.events;
  }
  friend bool operator!=(const FaultPlan& a, const FaultPlan& b) {
    return !(a == b);
  }
};

// Parses a plan spec string: `;`-separated events of the form
//   <kind>@<start><unit>+<duration><unit>[*<magnitude>]
// with kinds chan-stale | chan-garble | chan-fail | latency | stall | crash |
// freeze-fail | freeze-hang | steal | ipi-drop | ipi-dup | ipi-delay |
// port-mask and units ns/us/ms/s, e.g.
//   "stall@500ms+200ms;chan-fail@1s+300ms;steal@2s+100ms*2"
// Returns false (with *error set) on malformed input; `out` is untouched on failure.
bool ParseFaultPlan(const std::string& spec, FaultPlan* out, std::string* error);

}  // namespace vscale

#endif  // VSCALE_SRC_FAULTS_FAULT_PLAN_H_
