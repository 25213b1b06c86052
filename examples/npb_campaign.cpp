// Mini campaign: one NPB app across all four configurations and all three OpenMP
// wait policies — the per-app slice of the paper's Figure 6, runnable in seconds.
//
//   $ ./examples/npb_campaign [app] [vcpus]

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/base/parse.h"
#include "src/base/table.h"
#include "src/workloads/campaign.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/testbed.h"

using namespace vscale;

constexpr const char* kUsage = "usage: npb_campaign [app] [vcpus]\n";

int main(int argc, char** argv) {
  const std::string app = argc > 1 ? argv[1] : "cg";
  if (!IsNpbProfileName(app)) {
    std::fprintf(stderr, "%sapp must be an NPB kernel name, got '%s'\n", kUsage,
                 app.c_str());
    return 2;
  }
  int vcpus = 4;
  if (argc > 2) {
    int64_t n = 0;
    if (!ParseI64(argv[2], &n) || n < 1 || n > kMaxVcpusPerDomain) {
      std::fprintf(stderr, "%svcpus must be an integer in 1..%d, got '%s'\n", kUsage,
                   kMaxVcpusPerDomain, argv[2]);
      return 2;
    }
    vcpus = static_cast<int>(n);
  }

  CampaignConfig cfg;
  cfg.vcpus = vcpus;
  cfg.seeds = {42};

  std::printf("NPB '%s' on a %d-vCPU VM under all four configurations\n\n", app.c_str(),
              vcpus);

  TextTable table({"spin policy", "config", "exec time (s)", "normalized",
                   "VM wait (s)", "vIPIs/s/vCPU"});
  const struct {
    int64_t spin;
    const char* name;
  } kSpins[] = {{kSpinCountActive, "30B (ACTIVE)"},
                {kSpinCountDefault, "300K (default)"},
                {kSpinCountPassive, "0 (PASSIVE)"}};
  for (const auto& spin : kSpins) {
    std::vector<CellResult> cells;
    for (Policy policy : cfg.policies) {
      cells.push_back(RunNpbCell(cfg, app, spin.spin, policy));
    }
    for (const auto& c : cells) {
      table.AddRow({spin.name, ToString(c.policy),
                    TextTable::Num(ToSeconds(c.mean_duration), 3),
                    TextTable::Num(Normalized(cells, c), 2),
                    TextTable::Num(ToSeconds(c.mean_wait), 3),
                    TextTable::Num(c.ipis_per_vcpu_sec, 1)});
    }
  }
  table.Print();
  return 0;
}
