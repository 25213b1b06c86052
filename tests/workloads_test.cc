// Tests for the workload models: NPB/PARSEC profiles, app execution to completion,
// the web server + httperf client, slideshow desktops, kernel build, the phase
// schedule, and the testbed assembly.

#include <gtest/gtest.h>

#include "src/hypervisor/machine.h"
#include "src/metrics/run_metrics.h"
#include "src/workloads/background.h"
#include "src/workloads/campaign.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/pthread_app.h"
#include "src/workloads/testbed.h"
#include "src/workloads/adaptive_app.h"
#include "src/workloads/web_server.h"

namespace vscale {
namespace {

TEST(ProfileTest, NpbSuiteHasTenApps) {
  const auto suite = NpbSuite(4, kSpinCountDefault);
  ASSERT_EQ(suite.size(), 10u);
  for (const auto& app : suite) {
    EXPECT_EQ(app.threads, 4);
    EXPECT_GT(app.intervals, 0);
    EXPECT_GT(app.grain_mean, 0);
  }
  EXPECT_TRUE(NpbProfile("lu", 4, 0).adhoc_pipeline);
  EXPECT_FALSE(NpbProfile("ep", 4, 0).adhoc_pipeline);
}

TEST(ProfileTest, ParsecSuiteHasThirteenApps) {
  const auto suite = ParsecSuite(4);
  ASSERT_EQ(suite.size(), 13u);
  EXPECT_TRUE(ParsecProfile("freqmine", 4).uses_openmp);
  EXPECT_GT(ParsecProfile("dedup", 4).mm_section, 0);
  EXPECT_EQ(ParsecProfile("swaptions", 4).cs_fraction, 0.0);
  EXPECT_GT(ParsecProfile("streamcluster", 4).stage_every, 0);
}

// Every NPB app must run to completion on a dedicated machine, under each wait
// policy (parameterized sweep).
class NpbCompletionTest
    : public ::testing::TestWithParam<std::tuple<const char*, int64_t>> {};

TEST_P(NpbCompletionTest, RunsToCompletionDedicated) {
  const auto [name, spin] = GetParam();
  TestbedConfig tb;
  tb.policy = Policy::kBaseline;
  tb.primary_vcpus = 4;
  tb.background_vms = -1;
  tb.seed = 5;
  Testbed bed(tb);
  OmpAppConfig ac = NpbProfile(name, 4, spin);
  // Shrink for test speed: a tenth of the standard length.
  ac.intervals = std::max<int64_t>(2, ac.intervals / 10);
  OmpApp app(bed.primary(), ac, 77);
  app.Start();
  const bool done = bed.RunUntil([&] { return app.done(); }, Seconds(120));
  EXPECT_TRUE(done) << name << " spin=" << spin;
  EXPECT_GT(app.duration(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllAppsAllPolicies, NpbCompletionTest,
    ::testing::Combine(::testing::Values("bt", "cg", "dc", "ep", "ft", "is", "lu",
                                         "mg", "sp", "ua"),
                       ::testing::Values(kSpinCountActive, kSpinCountDefault,
                                         kSpinCountPassive)));

class ParsecCompletionTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParsecCompletionTest, RunsToCompletionDedicated) {
  TestbedConfig tb;
  tb.policy = Policy::kBaseline;
  tb.primary_vcpus = 4;
  tb.background_vms = -1;
  tb.seed = 5;
  Testbed bed(tb);
  PthreadAppConfig ac = ParsecProfile(GetParam(), 4);
  ac.intervals = std::max<int64_t>(2, ac.intervals / 10);
  PthreadApp app(bed.primary(), ac, 77);
  app.Start();
  const bool done = bed.RunUntil([&] { return app.done(); }, Seconds(120));
  EXPECT_TRUE(done) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllApps, ParsecCompletionTest,
                         ::testing::Values("blackscholes", "bodytrack", "canneal",
                                           "dedup", "facesim", "ferret",
                                           "fluidanimate", "freqmine", "raytrace",
                                           "streamcluster", "swaptions", "vips",
                                           "x264"));

TEST(OmpAppTest, DurationScalesWithIntervals) {
  TestbedConfig tb;
  tb.background_vms = -1;
  Testbed bed(tb);
  OmpAppConfig small = NpbProfile("cg", 4, kSpinCountDefault);
  small.intervals = 100;
  OmpApp app(bed.primary(), small, 3);
  app.Start();
  ASSERT_TRUE(bed.RunUntil([&] { return app.done(); }, Seconds(60)));
  // ~100 intervals x 1.5 ms grain: at least 150 ms, well under 1 s on 4 vCPUs.
  EXPECT_GT(app.duration(), Milliseconds(140));
  EXPECT_LT(app.duration(), Seconds(1));
}

TEST(OmpAppTest, SpinningPolicyChangesSpinTime) {
  auto run_spin = [](int64_t spin) {
    TestbedConfig tb;
    tb.background_vms = -1;
    Testbed bed(tb);
    OmpAppConfig ac = NpbProfile("ua", 4, spin);
    ac.intervals = 400;
    OmpApp app(bed.primary(), ac, 3);
    app.Start();
    bed.RunUntil([&] { return app.done(); }, Seconds(60));
    TimeNs spin_time = 0;
    for (const auto& t : bed.primary().threads()) {
      spin_time += t->spin_time;
    }
    return spin_time;
  };
  // ACTIVE spins at barriers; PASSIVE blocks.
  EXPECT_GT(run_spin(kSpinCountActive), 4 * run_spin(kSpinCountPassive) + 1);
}

TEST(PthreadAppTest, DedupGeneratesFarMoreIpisThanSwaptions) {
  auto ipi_rate = [](const char* name) {
    TestbedConfig tb;
    tb.background_vms = -1;
    Testbed bed(tb);
    PthreadAppConfig ac = ParsecProfile(name, 4);
    ac.intervals = std::max<int64_t>(4, ac.intervals / 5);
    PthreadApp app(bed.primary(), ac, 3);
    const GuestCounters before = SnapshotCounters(bed.primary());
    app.Start();
    bed.RunUntil([&] { return app.done(); }, Seconds(200));
    const GuestCounters delta = SnapshotCounters(bed.primary()) - before;
    return PerVcpuPerSecond(delta.resched_ipis, 4, app.duration());
  };
  const double dedup = ipi_rate("dedup");
  const double swaptions = ipi_rate("swaptions");
  EXPECT_GT(dedup, 200.0);
  EXPECT_LT(swaptions, 5.0);
}

// --- web server ---

TEST(WebServerTest, ServesOfferedLoadWhenUnderCapacity) {
  TestbedConfig tb;
  tb.background_vms = -1;
  Testbed bed(tb);
  WebServer server(bed.primary(), bed.sim(), WebServerConfig{}, 5);
  server.Start();
  HttperfClient client(server, bed.sim(), 2000.0, 6);
  bed.sim().RunUntil(Milliseconds(100));
  client.Run(bed.sim().Now(), Seconds(5));
  bed.sim().RunUntil(Milliseconds(100) + Seconds(6));
  EXPECT_EQ(server.stats().drops, 0);
  EXPECT_NEAR(static_cast<double>(server.stats().replies), 10'000.0, 100.0);
  // Sub-millisecond latencies on a dedicated machine.
  EXPECT_LT(server.stats().connection_time_us.mean(), 1000.0);
  EXPECT_LT(server.stats().response_time_us.mean(), 3000.0);
}

TEST(WebServerTest, LinkSaturationCapsReplyRate) {
  TestbedConfig tb;
  tb.background_vms = -1;
  tb.primary_vcpus = 8;  // ample CPU so the wire is the bottleneck
  Testbed bed(tb);
  WebServerConfig ws;
  ws.workers = 16;
  ws.accept_backlog = 100000;
  WebServer server(bed.primary(), bed.sim(), ws, 5);
  server.Start();
  HttperfClient client(server, bed.sim(), 12'000.0, 6);
  bed.sim().RunUntil(Milliseconds(100));
  client.Run(bed.sim().Now(), Seconds(5));
  bed.sim().RunUntil(Milliseconds(100) + Seconds(6));
  // The backlog keeps draining onto the wire after the load stops, so measure over
  // the full 6 s horizon: 1 GbE / (16 KB + overhead) ~= 7.2 K/s.
  const double reply_rate = static_cast<double>(server.stats().replies) / 6.0;
  EXPECT_LT(reply_rate, 7300.0);
  EXPECT_GT(reply_rate, 5500.0);
}

TEST(WebServerTest, BacklogOverflowDropsRequests) {
  TestbedConfig tb;
  tb.background_vms = -1;
  tb.primary_vcpus = 1;
  Testbed bed(tb);
  WebServerConfig ws;
  ws.workers = 2;
  ws.accept_backlog = 16;
  WebServer server(bed.primary(), bed.sim(), ws, 5);
  server.Start();
  HttperfClient client(server, bed.sim(), 9'000.0, 6);  // >> 1-vCPU capacity
  bed.sim().RunUntil(Milliseconds(100));
  client.Run(bed.sim().Now(), Seconds(2));
  bed.sim().RunUntil(Milliseconds(100) + Seconds(3));
  EXPECT_GT(server.stats().drops, 0);
}

TEST(HttperfClientTest, ConstantRateGeneratesExpectedArrivals) {
  TestbedConfig tb;
  tb.background_vms = -1;
  Testbed bed(tb);
  WebServer server(bed.primary(), bed.sim(), WebServerConfig{}, 5);
  server.Start();
  HttperfClient client(server, bed.sim(), 1000.0, 6);
  client.Run(Milliseconds(100), Seconds(3));
  bed.sim().RunUntil(Seconds(4));
  EXPECT_NEAR(static_cast<double>(server.stats().arrivals), 3000.0, 5.0);
}

// --- background workloads ---

TEST(SlideshowTest, AlternatesBurstAndThink) {
  MachineConfig mc;
  mc.n_pcpus = 4;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("desktop", 512, 2);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  SlideshowDesktop desktop(kernel, 9);
  desktop.Start();
  machine.sim().RunUntil(Seconds(10));
  EXPECT_GT(desktop.slides_shown(), 5);
  // Duty cycle: busy but not saturated (think gaps persist).
  const double busy = ToSeconds(d.TotalRuntime()) / (10.0 * 2);
  EXPECT_GT(busy, 0.5);
  EXPECT_LT(busy, 0.99);
}

TEST(PhaseScheduleTest, AlternatesAndRespectsMeans) {
  LoadPhaseSchedule sched(Milliseconds(500), Milliseconds(500), 4);
  int crunch = 0;
  constexpr int kSamples = 20'000;
  for (int i = 0; i < kSamples; ++i) {
    if (sched.InCrunch(static_cast<TimeNs>(i) * Milliseconds(1))) {
      ++crunch;
    }
  }
  EXPECT_NEAR(static_cast<double>(crunch) / kSamples, 0.5, 0.1);
}

TEST(PhaseScheduleTest, PhaseEndIsInFuture) {
  LoadPhaseSchedule sched(Milliseconds(300), Milliseconds(700), 4);
  for (TimeNs t = 0; t < Seconds(5); t += Milliseconds(37)) {
    EXPECT_GT(sched.PhaseEnd(t), t);
  }
}

TEST(KernelBuildTest, BuildsUnitsAndGeneratesIpis) {
  MachineConfig mc;
  mc.n_pcpus = 4;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("builder", 1024, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  KernelBuild build(kernel, 13);
  build.Start();
  machine.sim().RunUntil(Seconds(5));
  EXPECT_GT(build.units_built(), 100);
  int64_t ipis = 0;
  for (int c = 0; c < 4; ++c) {
    ipis += kernel.cpu(c).stats.resched_ipis;
  }
  EXPECT_GT(ipis, 100);  // fork-placement IPIs from the helper churn
}

// --- testbed & campaign ---

TEST(TestbedTest, AutoSizesBackgroundToTwoVcpusPerPcpu) {
  TestbedConfig tb;
  tb.primary_vcpus = 4;
  Testbed bed(tb);
  // pool 12, primary 4 -> 10 desktops x 2 vCPUs = 24 total vCPUs.
  EXPECT_EQ(bed.machine().n_pcpus(), 12);
  EXPECT_EQ(bed.machine().n_domains(), 11);
}

TEST(TestbedTest, VscalePolicyWiresTickerAndDaemon) {
  TestbedConfig tb;
  tb.policy = Policy::kVscale;
  Testbed bed(tb);
  EXPECT_NE(bed.daemon(), nullptr);
  EXPECT_NE(bed.ticker(), nullptr);
  bed.sim().RunUntil(Milliseconds(100));
  EXPECT_GT(bed.ticker()->passes(), 0);
  EXPECT_GT(bed.primary_domain().extendability_nvcpus, 0);
}

TEST(TestbedTest, BaselineHasNoVscaleMachinery) {
  TestbedConfig tb;
  tb.policy = Policy::kBaseline;
  Testbed bed(tb);
  EXPECT_EQ(bed.daemon(), nullptr);
  EXPECT_EQ(bed.ticker(), nullptr);
}

TEST(TestbedTest, PolicyHelpers) {
  EXPECT_TRUE(PolicyUsesVscale(Policy::kVscale));
  EXPECT_TRUE(PolicyUsesVscale(Policy::kVscalePvlock));
  EXPECT_FALSE(PolicyUsesVscale(Policy::kBaselinePvlock));
  EXPECT_TRUE(PolicyUsesPvlock(Policy::kBaselinePvlock));
  EXPECT_TRUE(PolicyUsesPvlock(Policy::kVscalePvlock));
  EXPECT_FALSE(PolicyUsesPvlock(Policy::kBaseline));
}

TEST(MetricsTest, CountersSubtractAndRates) {
  GuestCounters a;
  a.timer_ints = 100;
  a.resched_ipis = 50;
  GuestCounters b;
  b.timer_ints = 40;
  b.resched_ipis = 10;
  const GuestCounters d = a - b;
  EXPECT_EQ(d.timer_ints, 60);
  EXPECT_EQ(d.resched_ipis, 40);
  EXPECT_DOUBLE_EQ(PerVcpuPerSecond(400, 4, Seconds(10)), 10.0);
  EXPECT_DOUBLE_EQ(PerVcpuPerSecond(400, 0, Seconds(10)), 0.0);
}

TEST(MetricsTest, NormalizeToBaseline) {
  std::vector<AppRunResult> runs = {
      {"lu", "Xen/Linux", Seconds(10), 0, 0.0},
      {"lu", "vScale", Seconds(4), 0, 0.0},
  };
  const auto rows = NormalizeToBaseline(runs, "Xen/Linux");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].normalized, 1.0);
  EXPECT_DOUBLE_EQ(rows[1].normalized, 0.4);
}

TEST(CampaignTest, NormalizedHelperFindsBaseline) {
  std::vector<CellResult> cells(2);
  cells[0].app = "cg";
  cells[0].policy = Policy::kBaseline;
  cells[0].mean_duration = Seconds(10);
  cells[1].app = "cg";
  cells[1].policy = Policy::kVscale;
  cells[1].mean_duration = Seconds(5);
  EXPECT_DOUBLE_EQ(Normalized(cells, cells[1]), 0.5);
  EXPECT_DOUBLE_EQ(Normalized(cells, cells[0]), 1.0);
}

}  // namespace
}  // namespace vscale

namespace vscale {
namespace {


TEST(AdaptiveAppTest, CompletesAllChunksFixedAndAdaptive) {
  for (bool adaptive : {false, true}) {
    TestbedConfig tb;
    tb.background_vms = -1;
    Testbed bed(tb);
    AdaptiveAppConfig ac;
    ac.adaptive = adaptive;
    ac.chunks = 300;
    AdaptiveApp app(bed.primary(), ac, 9);
    app.Start();
    ASSERT_TRUE(bed.RunUntil([&] { return app.done(); }, Seconds(600)))
        << "adaptive=" << adaptive;
    EXPECT_EQ(app.chunks_done(), 300);
  }
}

TEST(AdaptiveAppTest, ParksWorkersWhenVcpusFrozen) {
  TestbedConfig tb;
  tb.background_vms = -1;
  Testbed bed(tb);
  // Freeze half the VM up front: an adaptive team must park surplus workers.
  bed.primary().FreezeCpu(3);
  bed.primary().FreezeCpu(2);
  AdaptiveAppConfig ac;
  ac.adaptive = true;
  ac.chunks = 300;
  AdaptiveApp app(bed.primary(), ac, 9);
  app.Start();
  ASSERT_TRUE(bed.RunUntil([&] { return app.done(); }, Seconds(600)));
  EXPECT_GT(app.parks(), 0);
  EXPECT_EQ(app.chunks_done(), 300);
}

}  // namespace
}  // namespace vscale
