#include "src/workloads/campaign.h"

namespace vscale {

// Virtual-time budget for one run; a run that misses it is left out of the means.
constexpr TimeNs kRunDeadline = Seconds(900);

template <typename App>
GuestCounters RunApp(Testbed& bed, App& app) {
  bed.sim().RunUntil(Milliseconds(200));
  const GuestCounters before = SnapshotCounters(bed.primary());
  app.Start();
  bed.RunUntil([&] { return app.done(); }, kRunDeadline);
  return SnapshotCounters(bed.primary()) - before;
}

template GuestCounters RunApp(Testbed& bed, OmpApp& app);
template GuestCounters RunApp(Testbed& bed, PthreadApp& app);

namespace {

template <typename App, typename AppConfig>
CellResult RunCell(const CampaignConfig& cfg, const AppConfig& app_config,
                   int64_t spin_count, Policy policy) {
  CellResult cell;
  cell.app = app_config.name;
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
    App app(bed.primary(), app_config, AppSeed(seed));
    const GuestCounters delta = RunApp(bed, app);
    if (!app.done()) {
      continue;
    }
    dur_sum += app.duration();
    wait_sum += delta.domain_wait;
    ipi_sum += PerVcpuPerSecond(delta.resched_ipis, cfg.vcpus, app.duration());
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
  return RunCell<OmpApp>(cfg, NpbProfile(app, cfg.vcpus, spin_count), spin_count,
                         policy);
}

CellResult RunParsecCell(const CampaignConfig& cfg, const std::string& app,
                         Policy policy) {
  return RunCell<PthreadApp>(cfg, ParsecProfile(app, cfg.vcpus), /*spin_count=*/0,
                             policy);
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
