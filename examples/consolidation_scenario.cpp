// Consolidation scenario: walks through the paper's core story on one machine.
//
// A 4-vCPU VM runs a synchronization-heavy OpenMP job while ten bursty virtual
// desktops come and go. The example traces, second by second, the VM's active vCPU
// count (vScale's decision), its CPU extendability, and its accumulated scheduling
// delay — the live version of the paper's Figures 8 and 9.
//
//   $ ./examples/consolidation_scenario [seconds]

#include <cstdint>
#include <cstdio>

#include "src/base/parse.h"
#include "src/base/table.h"
#include "src/metrics/run_metrics.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/testbed.h"

using namespace vscale;

int main(int argc, char** argv) {
  int seconds = 12;
  if (argc > 1) {
    int64_t n = 0;
    if (!ParseI64(argv[1], &n) || n < 1 || n > INT32_MAX) {
      std::fprintf(stderr,
                   "usage: consolidation_scenario [seconds]\n"
                   "seconds must be an integer >= 1, got '%s'\n",
                   argv[1]);
      return 2;
    }
    seconds = static_cast<int>(n);
  }

  TestbedConfig cfg;
  cfg.policy = Policy::kVscale;
  cfg.primary_vcpus = 4;
  cfg.seed = 2026;
  Testbed bed(cfg);

  std::printf("Consolidation scenario: 4-vCPU VM + %d bursty desktops on %d pCPUs\n\n",
              bed.config().background_vms, bed.machine().n_pcpus());

  // Observe the daemon's decisions.
  int last_active = 4;
  bed.daemon()->on_cycle = [&](TimeNs, int active) { last_active = active; };

  // A long-running synchronization-heavy job.
  OmpAppConfig ac = NpbProfile("lu", 4, kSpinCountActive);
  ac.intervals = 1'000'000;
  OmpApp app(bed.primary(), ac, 7);
  bed.sim().RunUntil(Milliseconds(200));
  app.Start();

  TextTable table({"t (s)", "active vCPUs", "extendability (pCPUs)",
                   "VM wait so far (ms)", "thread migrations"});
  for (int s = 1; s <= seconds; ++s) {
    bed.sim().RunUntil(Milliseconds(200) + Seconds(s));
    int64_t migrations = 0;
    for (const auto& t : bed.primary().threads()) {
      migrations += t->migrations;
    }
    table.AddRow({TextTable::Int(s), TextTable::Int(last_active),
                  TextTable::Num(ToSeconds(bed.primary_domain().extendability_ns) /
                                     ToSeconds(bed.ticker()->period()),
                                 2),
                  TextTable::Num(ToMilliseconds(bed.PrimaryWaitTime()), 1),
                  TextTable::Int(migrations)});
  }
  table.Print();

  std::printf("\nfreezes: %lld, unfreezes: %lld, daemon channel reads: %lld\n",
              static_cast<long long>(bed.daemon()->balancer().freezes()),
              static_cast<long long>(bed.daemon()->balancer().unfreezes()),
              static_cast<long long>(bed.daemon()->channel().reads()));
  std::printf("scheduling-delay distribution: %s\n",
              bed.primary_domain().wait_histogram.Summary().c_str());
  return 0;
}
