// Figure 9: reduction of the VM's waiting time (time its vCPUs spend runnable but
// not running) with vScale vs Xen/Linux, for every NPB app, with and without
// pv-spinlock.
//
// Paper: >90% reduction across all ten applications regardless of the lock flavor —
// the benefit every delay-sensitive component inherits without modification.

#include <cstdio>

#include "bench/bench_common.h"

using namespace vscale;

int main(int argc, char** argv) {
  BenchTraceScope trace_scope(argc, argv);  // --trace/--metrics (OBSERVABILITY.md)
  CampaignConfig cfg = MakeCampaign(/*vcpus=*/4);
  cfg.testbed.observers = trace_scope.observers();
  std::printf("Figure 9: VM waiting-time reduction with vScale (NPB, 4-vCPU VM)\n");
  std::printf("(seeds per cell: %zu; GOMP_SPINCOUNT = 30 billion)\n\n",
              cfg.seeds.size());

  const auto cells = RunNpbSuite(cfg, kSpinCountActive);
  TextTable table({"app", "w/o pvlock: wait reduction (%)",
                   "w/ pvlock: wait reduction (%)"});
  for (const auto& base : cells) {
    if (base.policy != Policy::kBaseline) {
      continue;
    }
    double plain = 0.0;
    double pv = 0.0;
    for (const auto& c : cells) {
      if (c.app != base.app) {
        continue;
      }
      if (c.policy == Policy::kVscale && base.mean_wait > 0) {
        plain = 100.0 * (1.0 - static_cast<double>(c.mean_wait) /
                                   static_cast<double>(base.mean_wait));
      }
    }
    // pvlock pair: compare vScale+pvlock against baseline+pvlock.
    const CellResult* pv_base = nullptr;
    const CellResult* pv_vscale = nullptr;
    for (const auto& c : cells) {
      if (c.app != base.app) {
        continue;
      }
      if (c.policy == Policy::kBaselinePvlock) {
        pv_base = &c;
      }
      if (c.policy == Policy::kVscalePvlock) {
        pv_vscale = &c;
      }
    }
    if (pv_base != nullptr && pv_vscale != nullptr && pv_base->mean_wait > 0) {
      pv = 100.0 * (1.0 - static_cast<double>(pv_vscale->mean_wait) /
                              static_cast<double>(pv_base->mean_wait));
    }
    table.AddRow({base.app, TextTable::Num(plain, 1), TextTable::Num(pv, 1)});
  }
  table.Print();
  std::printf("\npaper: >90%% reduction for every app, with or without pv-spinlock\n");
  return 0;
}
