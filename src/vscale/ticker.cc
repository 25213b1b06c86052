#include "src/vscale/ticker.h"

#include "src/base/trace.h"

namespace vscale {

ExtendabilityTicker::ExtendabilityTicker(Machine& machine, TimeNs period,
                                         ExtendabilityOptions options)
    : machine_(machine),
      period_(period > 0 ? period : machine.cost().vscale_recalc_period),
      options_(options) {
  task_ = std::make_unique<PeriodicTask>(machine_.sim(), period_,
                                         [this] { Recompute(); });
}

void ExtendabilityTicker::Start() { task_->Start(); }

void ExtendabilityTicker::Stop() { task_->Stop(); }

void ExtendabilityTicker::Recompute() {
  ++passes_;
  std::vector<VmShareInput> inputs;
  inputs.reserve(machine_.domains().size());
  for (const auto& d : machine_.domains()) {
    VmShareInput in;
    in.weight = d->weight();
    in.consumed = machine_.WindowConsumption(d->id());
    in.waited = machine_.WindowWaited(d->id());
    in.max_vcpus = d->n_vcpus();
    in.cap_pcpus = d->cap_pcpus();
    inputs.push_back(in);
  }
  const auto results =
      ComputeExtendability(inputs, machine_.n_pcpus(), period_, options_);
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& d = machine_.domains()[i];
    if (d->n_vcpus() < 2) {
      continue;  // UP-VMs are omitted: no room for scaling (paper section 4.2)
    }
    machine_.WriteExtendability(d->id(), results[i].optimal_vcpus, results[i].ext_ns);
    VSCALE_TRACE_COUNTER(machine_.observers(), machine_.Now(), TraceCategory::kVscale,
                         "extendability_nvcpus", d->id(), results[i].optimal_vcpus);
  }
  machine_.ResetConsumptionWindow();
  if (on_pass) {
    on_pass(machine_.Now(), results);
  }
}

}  // namespace vscale
