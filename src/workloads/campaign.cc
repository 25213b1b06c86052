#include "src/workloads/campaign.h"

#include <memory>

namespace vscale {

namespace {

// Virtual-time budget for one run; a run that misses it is left out of the means.
constexpr TimeNs kRunDeadline = Seconds(900);

template <typename App, typename MakeApp>
CellResult RunCell(const CampaignConfig& cfg, const std::string& app_name,
                   int64_t spin_count, Policy policy, MakeApp&& make_app) {
  CellResult cell;
  cell.app = app_name;
  cell.policy = policy;
  cell.spin_count = spin_count;
  TimeNs dur_sum = 0;
  TimeNs wait_sum = 0;
  double ipi_sum = 0.0;
  for (uint64_t seed : cfg.seeds) {
    TestbedConfig tb = cfg.testbed;
    tb.policy = policy;
    tb.primary_vcpus = cfg.vcpus;
    tb.seed = seed;
    Testbed bed(tb);
    std::unique_ptr<App> app = make_app(bed, seed);
    bed.sim().RunUntil(Milliseconds(200));
    const GuestCounters before = SnapshotCounters(bed.primary());
    app->Start();
    const bool finished =
        bed.RunUntil([&] { return app->done(); }, kRunDeadline);
    if (!finished) {
      continue;
    }
    const GuestCounters delta = SnapshotCounters(bed.primary()) - before;
    dur_sum += app->duration();
    wait_sum += delta.domain_wait;
    ipi_sum += PerVcpuPerSecond(delta.resched_ipis, cfg.vcpus, app->duration());
    ++cell.runs;
  }
  if (cell.runs > 0) {
    cell.mean_duration = dur_sum / cell.runs;
    cell.mean_wait = wait_sum / cell.runs;
    cell.ipis_per_vcpu_sec = ipi_sum / cell.runs;
  }
  return cell;
}

}  // namespace

CellResult RunNpbCell(const CampaignConfig& cfg, const std::string& app,
                      int64_t spin_count, Policy policy) {
  return RunCell<OmpApp>(cfg, app, spin_count, policy,
                         [&](Testbed& bed, uint64_t seed) {
                           OmpAppConfig ac = NpbProfile(app, cfg.vcpus, spin_count);
                           return std::make_unique<OmpApp>(bed.primary(), ac,
                                                           seed * 13 + 7);
                         });
}

CellResult RunParsecCell(const CampaignConfig& cfg, const std::string& app,
                         Policy policy) {
  return RunCell<PthreadApp>(cfg, app, /*spin_count=*/0, policy,
                             [&](Testbed& bed, uint64_t seed) {
                               PthreadAppConfig ac = ParsecProfile(app, cfg.vcpus);
                               return std::make_unique<PthreadApp>(bed.primary(), ac,
                                                                   seed * 13 + 7);
                             });
}

std::vector<CellResult> RunNpbSuite(const CampaignConfig& cfg, int64_t spin_count) {
  std::vector<CellResult> out;
  for (const auto& app : NpbSuite(cfg.vcpus, spin_count)) {
    for (Policy policy : cfg.policies) {
      out.push_back(RunNpbCell(cfg, app.name, spin_count, policy));
    }
  }
  return out;
}

std::vector<CellResult> RunParsecSuite(const CampaignConfig& cfg) {
  std::vector<CellResult> out;
  for (const auto& app : ParsecSuite(cfg.vcpus)) {
    for (Policy policy : cfg.policies) {
      out.push_back(RunParsecCell(cfg, app.name, policy));
    }
  }
  return out;
}

double Normalized(const std::vector<CellResult>& cells, const CellResult& cell) {
  for (const auto& base : cells) {
    if (base.app == cell.app && base.policy == Policy::kBaseline &&
        base.spin_count == cell.spin_count && base.mean_duration > 0) {
      return static_cast<double>(cell.mean_duration) /
             static_cast<double>(base.mean_duration);
    }
  }
  return 0.0;
}

}  // namespace vscale
