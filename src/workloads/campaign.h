// Campaign runner: executes the paper's application-level experiment grids
// (app x policy x wait-policy x seeds) on the consolidated testbed and aggregates the
// per-run measurements the figures need. Used by bench/bench_repro for Figures 6-13
// and, through RunApp, for the ablations that re-wire a testbed of their own.

#ifndef VSCALE_SRC_WORKLOADS_CAMPAIGN_H_
#define VSCALE_SRC_WORKLOADS_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/metrics/run_metrics.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/pthread_app.h"
#include "src/workloads/testbed.h"

namespace vscale {

struct CampaignConfig {
  int vcpus = 4;
  std::vector<Policy> policies = {Policy::kBaseline, Policy::kVscale,
                                  Policy::kBaselinePvlock, Policy::kVscalePvlock};
  std::vector<uint64_t> seeds = {42};
  TestbedConfig testbed;               // policy/seed fields overridden per run
};

struct CellResult {
  std::string app;
  Policy policy = Policy::kBaseline;
  int64_t spin_count = 0;
  TimeNs mean_duration = 0;
  TimeNs mean_wait = 0;
  double ipis_per_vcpu_sec = 0.0;
  int runs = 0;  // runs that finished before the deadline (the means cover only these)
};

// The app seed of a campaign run on the testbed seeded `seed`.
constexpr uint64_t AppSeed(uint64_t seed) { return seed * 13 + 7; }

// The measured part of one run, on a testbed the caller built: warm up to
// 200 ms, snapshot the primary's counters, start `app`, run until it is done or
// 900 s of virtual time have passed, and return the primary's counter delta.
// A run that missed the deadline leaves `app.done()` false. Defined for OmpApp
// and PthreadApp.
template <typename App>
GuestCounters RunApp(Testbed& bed, App& app);

// Runs one NPB app under one policy, averaged over the campaign seeds.
CellResult RunNpbCell(const CampaignConfig& cfg, const std::string& app,
                      int64_t spin_count, Policy policy);

// Runs one PARSEC app under one policy.
CellResult RunParsecCell(const CampaignConfig& cfg, const std::string& app,
                         Policy policy);

// Full suites (the figure benches iterate these).
std::vector<CellResult> RunNpbSuite(const CampaignConfig& cfg, int64_t spin_count);
std::vector<CellResult> RunParsecSuite(const CampaignConfig& cfg);

// Normalized execution time of `cell` against the baseline cell for the same app.
double Normalized(const std::vector<CellResult>& cells, const CellResult& cell);

}  // namespace vscale

#endif  // VSCALE_SRC_WORKLOADS_CAMPAIGN_H_
