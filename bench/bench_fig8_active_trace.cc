// Figure 8: trace of the number of active vCPUs over 10 seconds while running `bt`
// with vScale enabled, for a 4-vCPU VM and an 8-vCPU VM.
//
// Paper shape: the VM adapts continuously, oscillating between ~2 and its full vCPU
// count (4 or 8) as the co-located desktops' demand fluctuates.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/workloads/campaign.h"

using namespace vscale;

namespace {

void TraceRun(int vcpus, const Observers& obs) {
  TestbedConfig tb;
  tb.policy = Policy::kVscale;
  tb.primary_vcpus = vcpus;
  tb.seed = 42;
  tb.observers = obs;
  Testbed bed(tb);

  std::vector<std::pair<TimeNs, int>> trace;
  bed.daemon()->on_cycle = [&](TimeNs t, int active) {
    if (trace.empty() || trace.back().second != active) {
      trace.push_back({t, active});
    }
  };

  OmpAppConfig ac = NpbProfile("bt", vcpus, kSpinCountActive);
  ac.intervals = 1'000'000;  // run for the whole trace window
  OmpApp app(bed.primary(), ac, 777);
  bed.sim().RunUntil(Milliseconds(200));
  app.Start();
  bed.sim().RunUntil(Milliseconds(200) + Seconds(10));

  std::printf("%d-vCPU VM (time_s,active_vcpus):\n", vcpus);
  // Step trace; also sample at 100 ms for easy plotting.
  size_t idx = 0;
  int current = vcpus;
  TimeNs active_seconds = 0;
  TimeNs prev_t = Milliseconds(200);
  int prev_a = vcpus;
  for (const auto& [t, a] : trace) {
    active_seconds += (t - prev_t) * prev_a;
    prev_t = t;
    prev_a = a;
  }
  active_seconds += (Milliseconds(200) + Seconds(10) - prev_t) * prev_a;
  for (TimeNs t = Milliseconds(200); t <= Milliseconds(200) + Seconds(10);
       t += Milliseconds(100)) {
    while (idx < trace.size() && trace[idx].first <= t) {
      current = trace[idx].second;
      ++idx;
    }
    std::printf("%.1f,%d\n", ToSeconds(t - Milliseconds(200)), current);
  }
  std::printf("mean active vCPUs: %.2f; reconfigurations in 10s: %zu\n\n",
              static_cast<double>(active_seconds) / static_cast<double>(Seconds(10)),
              trace.size());
}

}  // namespace

int main(int argc, char** argv) {
  BenchTraceScope trace_scope(argc, argv);  // --trace/--metrics (OBSERVABILITY.md)
  std::printf("Figure 8: active vCPUs over time running bt with vScale\n\n");
  TraceRun(4, trace_scope.observers());
  TraceRun(8, trace_scope.observers());
  std::printf("paper shape: continuous adaptation between ~2 and the VM's full size\n");
  return 0;
}
