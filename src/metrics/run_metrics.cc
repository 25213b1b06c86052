#include "src/metrics/run_metrics.h"

#include "src/base/trace.h"

namespace vscale {

void PublishMachineMetrics(MetricsRegistry& registry, const Machine& machine,
                           const std::string& prefix) {
  registry.Counter(prefix + "sim.events_processed") =
      static_cast<int64_t>(machine.sim().events_processed());
  // Unprefixed on purpose: the harness hands one tracer to every run it
  // traces, so one run's drop count is everyone's. A nonzero value means
  // trace-derived figures (and trace_lint verdicts) looked at a truncated window.
  const Tracer* tracer = machine.observers().tracer;
  registry.Counter("trace.events_dropped") =
      tracer != nullptr ? static_cast<int64_t>(tracer->dropped()) : 0;
  registry.Counter(prefix + "hv.context_switches") = machine.context_switches();
  registry.Counter(prefix + "hv.idle_ns_total") = machine.TotalIdleTime();
  // BOOST wake telemetry: the grant/denial split shows whether the boost
  // budget (MachineConfig::boost_budget, docs/ADVERSARIAL.md) is biting.
  registry.Counter(prefix + "sched.boost_grants") = machine.boost_grants();
  registry.Counter(prefix + "sched.boost_denied") = machine.boost_denied();
  for (const auto& d : machine.domains()) {
    const std::string base = prefix + "dom." + SanitizeMetricName(d->name()) + ".";
    registry.Counter(base + "runtime_ns") = d->TotalRuntime();
    registry.Counter(base + "wait_ns") = d->TotalWait();
    registry.Counter(base + "extendability_nvcpus") = d->extendability_nvcpus;
    auto* kernel = dynamic_cast<GuestKernel*>(d->guest());
    if (kernel == nullptr) {
      continue;
    }
    registry.Counter(base + "active_vcpus") = kernel->online_cpus();
    for (int i = 0; i < kernel->n_cpus(); ++i) {
      const GuestCpuStats& s = kernel->cpu(i).stats;
      const std::string vbase = base + "vcpu" + std::to_string(i) + ".";
      registry.Counter(vbase + "timer_ints") = s.timer_ints;
      registry.Counter(vbase + "resched_ipis") = s.resched_ipis;
      registry.Counter(vbase + "io_irqs") = s.io_irqs;
      registry.Counter(vbase + "guest_switches") = s.guest_switches;
    }
  }
}

GuestCounters GuestCounters::operator-(const GuestCounters& other) const {
  GuestCounters d;
  d.timer_ints = timer_ints - other.timer_ints;
  d.resched_ipis = resched_ipis - other.resched_ipis;
  d.io_irqs = io_irqs - other.io_irqs;
  d.domain_wait = domain_wait - other.domain_wait;
  d.domain_runtime = domain_runtime - other.domain_runtime;
  return d;
}

GuestCounters SnapshotCounters(const GuestKernel& kernel) {
  GuestCounters c;
  auto& k = const_cast<GuestKernel&>(kernel);
  for (int i = 0; i < k.n_cpus(); ++i) {
    const GuestCpuStats& s = k.cpu(i).stats;
    c.timer_ints += s.timer_ints;
    c.resched_ipis += s.resched_ipis;
    c.io_irqs += s.io_irqs;
  }
  c.domain_wait = k.domain().TotalWait();
  c.domain_runtime = k.domain().TotalRuntime();
  return c;
}

double PerVcpuPerSecond(int64_t count, int vcpus, TimeNs window) {
  if (vcpus <= 0 || window <= 0) {
    return 0.0;
  }
  return static_cast<double>(count) / static_cast<double>(vcpus) / ToSeconds(window);
}

std::vector<NormalizedRow> NormalizeToBaseline(const std::vector<AppRunResult>& runs,
                                               const std::string& baseline_policy) {
  std::vector<NormalizedRow> rows;
  for (const auto& r : runs) {
    TimeNs base = 0;
    for (const auto& b : runs) {
      if (b.app == r.app && b.policy == baseline_policy) {
        base = b.duration;
        break;
      }
    }
    if (base <= 0) {
      continue;
    }
    rows.push_back({r.app, r.policy,
                    static_cast<double>(r.duration) / static_cast<double>(base)});
  }
  return rows;
}

}  // namespace vscale
