// Metric extraction and reporting for experiment runs: per-domain scheduling-delay
// accounting (Fig. 9), per-vCPU interrupt/IPI rates (Table 2, Figs. 10 & 13), and
// normalized-execution-time series (Figs. 6, 7, 11, 12).

#ifndef VSCALE_SRC_METRICS_RUN_METRICS_H_
#define VSCALE_SRC_METRICS_RUN_METRICS_H_

#include <string>
#include <vector>

#include "src/base/metrics_registry.h"
#include "src/base/time.h"
#include "src/guest/kernel.h"
#include "src/hypervisor/machine.h"

namespace vscale {

// Snapshot of a guest's cumulative counters; subtract two snapshots to window a
// measurement to an app's run.
struct GuestCounters {
  int64_t timer_ints = 0;
  int64_t resched_ipis = 0;
  int64_t io_irqs = 0;
  TimeNs domain_wait = 0;
  TimeNs domain_runtime = 0;

  GuestCounters operator-(const GuestCounters& other) const;
};

GuestCounters SnapshotCounters(const GuestKernel& kernel);

// Per-vCPU per-second rate over a window (paper plots "vIPIs / sec / vCPU").
double PerVcpuPerSecond(int64_t count, int vcpus, TimeNs window);

// One (policy, app) measurement used by the normalized-execution-time figures.
struct AppRunResult {
  std::string app;
  std::string policy;
  TimeNs duration = 0;
  TimeNs domain_wait = 0;
  double ipis_per_vcpu_sec = 0.0;
};

// Normalizes durations against the named baseline policy, app by app.
// Returns rows (app, policy, normalized_time); apps missing a baseline are skipped.
struct NormalizedRow {
  std::string app;
  std::string policy;
  double normalized = 0.0;
};
std::vector<NormalizedRow> NormalizeToBaseline(const std::vector<AppRunResult>& runs,
                                               const std::string& baseline_policy);

// Publishes a machine's canonical statistics as counters, under the naming
// convention of docs/OBSERVABILITY.md: "<prefix>sim.events_processed",
// "<prefix>hv.context_switches", "<prefix>hv.idle_ns_total", and per domain
// "<prefix>dom.<name>.runtime_ns|wait_ns|extendability_nvcpus" plus, for domains
// running a GuestKernel, "...active_vcpus" and per-vCPU interrupt counters
// "...vcpu<i>.timer_ints|resched_ipis|io_irqs|guest_switches". Also publishes the
// unprefixed "trace.events_dropped" of the machine's attached tracer (0 without one).
//
// The values are read now; Testbed's destructor calls this at teardown, so a
// registry holds each run's final values and never refers back into the machine.
void PublishMachineMetrics(MetricsRegistry& registry, const Machine& machine,
                           const std::string& prefix = "");

}  // namespace vscale

#endif  // VSCALE_SRC_METRICS_RUN_METRICS_H_
