// The one duration slice in a trace, a vCPU's `run`, is opened and closed by
// its run-state writer (Vcpu::SetState) alone. Recording a slice phase takes a
// Tracer::SliceKey, which only Vcpu can make, so no other code can open a slice
// that nothing closes: not through the event macro, not through the slice
// macro. See check.cmake for how this file is built.
// expect-error: SlicePhaseNeedsSliceKey
// expect-error: SliceKey::SliceKey\(\)' is private within this context|private constructor of class 'vscale::Tracer::SliceKey'

#include "src/base/trace.h"

namespace vscale {

void MarkPhase(const Observers& obs, TimeNs now) {
  VSCALE_TRACE_INSTANT(obs, now, TraceCategory::kHypervisor, "widget_phase", -1, -1,
                       -1);
#ifdef VSCALE_PLANT
  VSCALE_TRACE_EVENT(obs, now, TraceCategory::kHypervisor, TracePhase::kBegin,
                     "widget_phase", -1, -1, -1, nullptr, 0);
  VSCALE_TRACE_SLICE(obs, now, TraceCategory::kHypervisor, TracePhase::kBegin,
                     "widget_phase", -1, -1, -1);
#endif
}

}  // namespace vscale
