// Observers: where one simulation's observations go (docs/OBSERVABILITY.md).
//
// Four borrowed sink pointers: the flight recorder, the stall accountant, the
// coverage map and the metrics registry. A null pointer means that observer is
// off. The harness that builds a run owns the sinks and hands this value in
// through TestbedConfig::observers (or MachineConfig::observers for a bare
// Machine); the run's Simulator carries it, and every hook checks its own
// run's pointer. A run with nothing attached touches no shared mutable state,
// so two runs never see each other's observations.
//
// Attaching a sink never changes the simulation: no observer mutates
// simulation state or draws from an Rng (tools/digest_run --observers-check is
// the gate). Forward declarations only, so src/sim still links only src/base.

#ifndef VSCALE_SRC_BASE_OBSERVERS_H_
#define VSCALE_SRC_BASE_OBSERVERS_H_

namespace vscale {

class Tracer;           // src/base/trace.h
class StallAccountant;  // src/obs/stall_accounting.h
class CoverageMap;      // src/obs/coverage.h
class MetricsRegistry;  // src/base/metrics_registry.h

struct Observers {
  Tracer* tracer = nullptr;            // records the VSCALE_TRACE_* events
  StallAccountant* stall = nullptr;    // 8-bucket stall attribution
  CoverageMap* coverage = nullptr;     // semantic coverage points
  MetricsRegistry* metrics = nullptr;  // end-of-run counters (Testbed teardown)
};

// Stall and coverage hook sites, e.g.
//   VS_OBSERVE(sim_.observers(), stall, OnWake(dom, vcpu, now));
// calls the named sink when the run has one attached. An unobserved run pays
// one predictable branch on a pointer and never evaluates the call's arguments.
#define VS_OBSERVE(obs_, sink_, call_)   \
  do {                                   \
    if (auto* vs_sink_ = (obs_).sink_) { \
      vs_sink_->call_;                   \
    }                                    \
  } while (0)

}  // namespace vscale

#endif  // VSCALE_SRC_BASE_OBSERVERS_H_
