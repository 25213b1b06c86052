// Tests for the stall-attribution profiler (src/obs/): synthetic-timeline unit
// checks of the bucket state machine, exhaustiveness under a chaotic faulted
// run, the CSV round trip through the stall_report loader, the
// paper-acceptance claim itself — under vScale the primary domain's
// scheduler-attributable stall share (runnable wait + LHP spin) drops — and
// observer isolation: each run reports only into the sinks attached to it.

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/metrics_registry.h"
#include "src/base/observers.h"
#include "src/base/time.h"
#include "src/faults/fault_plan.h"
#include "src/obs/stall_accounting.h"
#include "src/obs/stall_report.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/testbed.h"

namespace vscale {
namespace {

Observers Attach(StallAccountant* stall, MetricsRegistry* metrics = nullptr) {
  Observers obs;
  obs.stall = stall;
  obs.metrics = metrics;
  return obs;
}

TEST(StallTest, SyntheticTimelineIsExhaustive) {
  StallAccountant a;
  a.BeginRun("unit");
  a.OnVcpuCreated(0, 0, 0);           // born blocked+idle at t=0
  a.OnWake(0, 0, 100);                // idle 100ns, now waiting for a pCPU
  a.OnDispatch(0, 0, 250);            // runnable 150ns, now on a pCPU
  a.OnRunningAdvance(0, 0, 500);      // 500ns attributed running...
  a.OnSpinAdvance(0, 0, 200);         // ...of which 200ns was kernel spin
  a.SetBlockReason(0, 0, StallBlockReason::kFutex);
  a.OnDesched(0, 0, 750, /*to_runnable=*/false);  // futex-sleeps at 750

  std::string error;
  EXPECT_TRUE(a.CheckExhaustive(1000, &error)) << error;
  EXPECT_EQ(a.BucketNs(0, 0, StallBucket::kIdle), 100);
  EXPECT_EQ(a.BucketNs(0, 0, StallBucket::kRunnableWaitingPcpu), 150);
  EXPECT_EQ(a.BucketNs(0, 0, StallBucket::kRunning), 300);
  EXPECT_EQ(a.BucketNs(0, 0, StallBucket::kLhpSpinning), 200);

  ASSERT_EQ(a.wake_to_dispatch().count(), 1);
  EXPECT_EQ(a.wake_to_dispatch().Quantile(1.0), 150);

  a.FinishRun(1000);  // closes the open futex interval: 750..1000
  EXPECT_EQ(a.BucketNs(0, 0, StallBucket::kFutexBlocked), 250);
  int64_t total = 0;
  for (int b = 0; b < kStallBucketCount; ++b) {
    total += a.BucketNs(0, 0, static_cast<StallBucket>(b));
  }
  EXPECT_EQ(total, 1000);
}

TEST(StallTest, FlagBucketsDeriveWithFrozenPrecedence) {
  StallAccountant a;
  a.BeginRun("unit");
  a.OnVcpuCreated(1, 0, 0);
  // An event posted to a woken-but-undispatched vCPU opens the delayed-IPI
  // window; the vScale freeze then reclassifies the wait as intentional.
  a.OnWake(1, 0, 0);
  a.OnEventPosted(1, 0, 100);              // 0..100 runnable_wait, then ipi
  a.OnFrozenChanged(1, 0, 300, true);      // 100..300 ipi, then frozen wins
  a.OnFrozenChanged(1, 0, 600, false);     // 300..600 frozen
  a.OnStealDisplaced(1, 0, 700);           // 600..700 ipi again, then stolen
  a.FinishRun(900);                        // 700..900 stolen

  EXPECT_EQ(a.BucketNs(1, 0, StallBucket::kRunnableWaitingPcpu), 100);
  EXPECT_EQ(a.BucketNs(1, 0, StallBucket::kIpiInFlight), 300);
  EXPECT_EQ(a.BucketNs(1, 0, StallBucket::kFrozen), 300);
  EXPECT_EQ(a.BucketNs(1, 0, StallBucket::kStolen), 200);
  EXPECT_EQ(a.BucketNs(1, 0, StallBucket::kRunning), 0);
}

TEST(StallTest, IpiLatencyMatchingAndLeftovers) {
  StallAccountant a;
  a.BeginRun("unit");
  a.OnVcpuCreated(1, 0, 0);           // hooked before (0,2), listed after it
  a.OnVcpuCreated(0, 2, 0);
  a.OnIpiSent(0, 2, 1000);
  a.OnIpiDelivered(0, 2, 1800);       // matched: 800ns
  a.OnIpiDelivered(0, 2, 1900);       // empty FIFO: ignored
  a.OnIpiSent(0, 2, 2000);            // never delivered
  ASSERT_EQ(a.ipi_deliver().count(), 1);
  EXPECT_EQ(a.ipi_deliver().Quantile(1.0), 800);
  a.FinishRun(3000);
  EXPECT_EQ(a.ipi_unmatched_sends(), 1);

  // CSV rows go in (domain, vcpu) order, whatever order the hooks came in:
  // the per-vCPU totals, then the per-domain aggregates (vcpu -1).
  std::ostringstream csv;
  a.WriteCsv(csv);
  std::istringstream lines(csv.str());
  std::string line;
  std::vector<std::string> ids;
  while (std::getline(lines, line)) {
    if (line.find(",running,") == std::string::npos) continue;
    const size_t dom = line.find(',', line.find(',') + 1) + 1;
    ids.push_back(line.substr(dom, line.find(",running,") - dom));
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"0,2", "1,0", "0,-1", "1,-1"}));

  // A vCPU never hooked reads 0, inside the table or past it, and so does a
  // negative id.
  EXPECT_EQ(a.BucketNs(0, 2, StallBucket::kIdle), 3000);
  EXPECT_EQ(a.BucketNs(0, 0, StallBucket::kIdle), 0);
  EXPECT_EQ(a.BucketNs(0, 7, StallBucket::kIdle), 0);
  EXPECT_EQ(a.BucketNs(3, 0, StallBucket::kIdle), 0);
  EXPECT_EQ(a.BucketNs(-1, 0, StallBucket::kIdle), 0);
  EXPECT_EQ(a.BucketNs(0, -1, StallBucket::kIdle), 0);
}

// Builds one quickstart-shaped testbed cell (full consolidated pool) observed
// through `obs`. The Testbed destructor finishes the stall run and publishes
// metrics under "<policy>." like the harnesses.
TestbedConfig StallCell(Policy policy, const Observers& obs) {
  TestbedConfig cfg;
  cfg.policy = policy;
  cfg.primary_vcpus = 4;
  cfg.seed = 42;
  cfg.observers = obs;
  return cfg;
}

// Runs a full-length lu on `bed` (small cells finish before the desktops'
// crunch phases ever force the balancer to act).
void RunLu(Testbed& bed) {
  OmpAppConfig app_cfg = NpbProfile("lu", 4, kSpinCountActive);
  OmpApp app(bed.primary(), app_cfg, 23);
  bed.sim().RunUntil(Milliseconds(200));
  app.Start();
  ASSERT_TRUE(bed.RunUntil([&] { return app.done(); }, Seconds(600)));
}

void RunStallCell(Policy policy, const Observers& obs,
                  const char* fault_spec = nullptr) {
  TestbedConfig cfg = StallCell(policy, obs);
  if (fault_spec != nullptr) {
    std::string error;
    ASSERT_TRUE(ParseFaultPlan(fault_spec, &cfg.faults, &error)) << error;
  }
  Testbed bed(cfg);
  ASSERT_EQ(bed.sim().observers().stall, obs.stall);
  RunLu(bed);
}

TEST(StallTest, ChaoticFaultedRunStaysExhaustive) {
  // The satellite-3 gate: freezes, daemon crashes, steal bursts and injected
  // latency must not open a hole in the bucket decomposition.
  StallAccountant a;
  RunStallCell(Policy::kVscale, Attach(&a),
               "chan-stale@400ms+600ms;stall@1500ms+800ms;"
               "freeze-fail@3s+400ms;latency@4s+300ms*12;steal@5s+500ms*1");
  EXPECT_GT(a.samples(), 0);
  EXPECT_EQ(a.exhaustive_failures(), 0);
  EXPECT_GT(a.wake_to_dispatch().count(), 0);
  EXPECT_GT(a.ipi_deliver().count(), 0);
  // The steal burst must surface as stolen time somewhere in the pool.
  int64_t stolen = 0;
  for (int dom = 0; dom < 8; ++dom) {
    stolen += a.DomainBucketNs(dom, StallBucket::kStolen);
  }
  EXPECT_GT(stolen, 0);
}

TEST(StallTest, BaselineVsVscaleShareShiftSurvivesCsvRoundTrip) {
  StallAccountant a;
  MetricsRegistry reg;
  RunStallCell(Policy::kBaseline, Attach(&a, &reg));
  RunStallCell(Policy::kVscale, Attach(&a, &reg));

  std::stringstream csv;
  a.WriteCsv(csv);
  StallSeries series;
  std::string error;
  ASSERT_TRUE(LoadStallCsv(csv, &series, &error)) << error;
  ASSERT_EQ(series.runs.size(), 2u);
  EXPECT_EQ(series.runs[0], "xen_linux");
  EXPECT_EQ(series.runs[1], "vscale");

  auto domains = BuildDomainBlame(BuildVcpuBlame(series));
  ASSERT_FALSE(domains.empty());

  // The acceptance criterion: the primary domain's scheduler-attributable
  // stall share (runnable wait + LHP spin) drops under vScale.
  const double base_share =
      DomainBucketShare(domains, "xen_linux", 0,
                        StallBucket::kRunnableWaitingPcpu) +
      DomainBucketShare(domains, "xen_linux", 0, StallBucket::kLhpSpinning);
  const double vscale_share =
      DomainBucketShare(domains, "vscale", 0,
                        StallBucket::kRunnableWaitingPcpu) +
      DomainBucketShare(domains, "vscale", 0, StallBucket::kLhpSpinning);
  EXPECT_GT(base_share, 0.0);
  EXPECT_LT(vscale_share, base_share);

  // Round trip: the loader's per-vCPU totals equal the accountant's.
  for (const auto& v : BuildVcpuBlame(series)) {
    if (v.run != "vscale" || v.vcpu < 0) {
      continue;
    }
    for (int b = 0; b < kStallBucketCount; ++b) {
      EXPECT_EQ(v.ns[b], a.BucketNs(v.domain, v.vcpu, static_cast<StallBucket>(b)))
          << "dom " << v.domain << " vcpu " << v.vcpu << " bucket " << b;
    }
  }

  // The Testbed destructor published each run's totals under stable names.
  EXPECT_TRUE(reg.Has("xen_linux.stall.dom0.runnable_waiting_pcpu_ns"));
  EXPECT_TRUE(reg.Has("vscale.stall.dom0.frozen_ns"));
  EXPECT_TRUE(reg.Has("vscale.stall.lat.wake_to_dispatch.p95_ns"));
  EXPECT_TRUE(reg.Has("vscale.stall.lat.ipi_deliver.count"));
  EXPECT_TRUE(reg.Has("vscale.stall.lat.freeze_quiesce.count"));
  EXPECT_TRUE(reg.Has("vscale.stall.dom0.scale_ops"));
  EXPECT_GT(reg.Value("vscale.stall.dom0.running_ns"), 0);
  EXPECT_GT(reg.Value("vscale.stall.dom0.scale_ops"), 0);
  EXPECT_GT(reg.Value("vscale.stall.dom0.frozen_ns"), 0);
}

TEST(StallTest, HooksReachOnlyTheAttachedActiveAccountant) {
  // An unobserved run's hook never evaluates its arguments.
  int evaluations = 0;
  const auto now = [&] {
    ++evaluations;
    return TimeNs{0};
  };
  VS_OBSERVE(Observers{}, stall, OnVcpuCreated(0, 0, now()));
  EXPECT_EQ(evaluations, 0);

  // An attached accountant outside BeginRun/FinishRun records nothing.
  StallAccountant a;
  const Observers obs = Attach(&a);
  VS_OBSERVE(obs, stall, OnVcpuCreated(0, 0, now()));
  VS_OBSERVE(obs, stall, OnWake(0, 0, 50));
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(a.BucketNs(0, 0, StallBucket::kIdle), 0);
  EXPECT_FALSE(a.active());
}

// The observed run of a cell, as its harness sees it after teardown.
struct ObservedRun {
  std::string stall_csv;
  int64_t exhaustive_failures = 0;
  std::vector<std::pair<std::string, int64_t>> metrics;
};

ObservedRun Harvest(const StallAccountant& stall, const MetricsRegistry& metrics) {
  std::ostringstream csv;
  stall.WriteCsv(csv);
  return {csv.str(), stall.exhaustive_failures(), metrics.Collect()};
}

TEST(ObserverIsolationTest, UnobservedNeighbourLeavesObservedRunUntouched) {
  StallAccountant solo_stall;
  MetricsRegistry solo_metrics;
  {
    Testbed bed(StallCell(Policy::kVscale, Attach(&solo_stall, &solo_metrics)));
    RunLu(bed);
  }
  const ObservedRun solo = Harvest(solo_stall, solo_metrics);

  // The same observed cell, alive beside an unobserved baseline neighbour that
  // runs and is torn down first: neither its hooks nor its teardown may reach
  // the observed run's sinks.
  StallAccountant stall;
  MetricsRegistry metrics;
  {
    Testbed observed(StallCell(Policy::kVscale, Attach(&stall, &metrics)));
    auto neighbour = std::make_unique<Testbed>(StallCell(Policy::kBaseline, {}));
    RunLu(*neighbour);
    neighbour.reset();
    RunLu(observed);
  }
  const ObservedRun shared = Harvest(stall, metrics);

  EXPECT_EQ(shared.exhaustive_failures, 0);
  EXPECT_EQ(shared.exhaustive_failures, solo.exhaustive_failures);
  EXPECT_EQ(shared.stall_csv.size(), solo.stall_csv.size());
  EXPECT_TRUE(shared.stall_csv == solo.stall_csv);
  EXPECT_EQ(shared.metrics, solo.metrics);
  EXPECT_GT(metrics.Value("vscale.dom.primary.wait_ns"), 0);
  EXPECT_FALSE(metrics.Has("xen_linux.dom.primary.wait_ns"));
}

// The benchmark harness's path (perfbench/harness/bench.cc): stall_accounting
// with no accountant attached reports into StallAccountant::Global(), which
// the harness reads after teardown and then resets.
TEST(PerfbenchStallPath, StallAccountingAttachesTheProcessWideAccountant) {
  StallAccountant& global = StallAccountant::Global();
  global.Reset();
  {
    TestbedConfig cfg = StallCell(Policy::kVscale, {});
    cfg.stall_accounting = true;
    cfg.pool_pcpus = 4;
    Testbed bed(cfg);
    EXPECT_EQ(bed.sim().observers().stall, &global);
    OmpAppConfig app_cfg = NpbProfile("lu", 4, kSpinCountActive);
    app_cfg.intervals = 20;
    OmpApp app(bed.primary(), app_cfg, 23);
    app.Start();
    ASSERT_TRUE(bed.RunUntil([&] { return app.done(); }, Seconds(60)));
  }
  EXPECT_GT(global.DomainBucketNs(0, StallBucket::kRunning), 0);
  global.Reset();
  EXPECT_EQ(global.DomainBucketNs(0, StallBucket::kRunning), 0);
}

}  // namespace
}  // namespace vscale
