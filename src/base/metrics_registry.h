// MetricsRegistry: a named counter registry so experiment harnesses read metrics by
// stable, documented names instead of reaching into ad-hoc struct fields.
//
// Every entry is an int64 counter slot owned by the registry; callers keep the
// reference from Counter() and write it directly (no per-write lookup). A run
// publishes into the registry attached as its Observers::metrics: the Testbed
// writes its machine, guest and control-plane statistics as counters at teardown,
// so the registry never refers back into a simulation and outlives every run it
// collected.
//
// Naming convention (docs/OBSERVABILITY.md): dot-separated lowercase path,
// `<layer>.<scope>.<metric>[_<unit>]`, e.g. "hv.context_switches",
// "dom.primary.wait_ns", "dom.primary.vcpu2.resched_ipis". Harness code may prepend
// a run prefix ("vscale.", "xen_linux.") to separate configurations in one dump.

#ifndef VSCALE_SRC_BASE_METRICS_REGISTRY_H_
#define VSCALE_SRC_BASE_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace vscale {

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  // Returns the counter slot for `name`, creating it at 0 on first use. The reference
  // stays valid until Clear() (std::map nodes are stable).
  int64_t& Counter(const std::string& name);

  bool Has(const std::string& name) const;

  // Current value, or 0 for an unknown name.
  int64_t Value(const std::string& name) const;

  // All metrics, name-sorted.
  std::vector<std::pair<std::string, int64_t>> Collect() const;

  // CSV dump: header line "metric,value", then one name-sorted row per metric.
  void WriteCsv(std::ostream& os) const;

  void Clear();
  size_t size() const { return counters_.size(); }

  // A process-wide registry nothing in src/ writes. It stays because the
  // benchmark harness clears it after every testbed (perfbench/harness/bench.cc).
  // vslint: allow(observer-global, kept only for the perfbench harness's Clear())
  static MetricsRegistry& Global();

 private:
  std::map<std::string, int64_t> counters_;
};

// Lowercases `s` and maps anything outside [a-z0-9_.] to '_', for embedding free-form
// names (domain names, policy labels) into metric paths.
std::string SanitizeMetricName(const std::string& s);

}  // namespace vscale

#endif  // VSCALE_SRC_BASE_METRICS_REGISTRY_H_
