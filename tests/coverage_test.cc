// CoverageMap unit tests (docs/FUZZING.md): catalogue naming, the per-run
// hook routing, the daemon-state shadows behind the pair.* features, scenario-shape
// binning, metric export — plus the generator-side contracts the guided
// fuzzer rests on: PredictedCoverage's static points, MutateScenario's
// determinism, and biased generation degenerating to blind against a
// saturated frontier.

#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/base/metrics_registry.h"
#include "src/fuzz/scenario.h"
#include "src/fuzz/scenario_gen.h"
#include "src/obs/coverage.h"
#include "src/workloads/testbed.h"

namespace vscale {
namespace {

int64_t At(const CoverageVector& v, CoveragePoint p) {
  return v[static_cast<size_t>(p)];
}

TEST(CoverageCatalogue, NamesRoundTripAndUnique) {
  std::set<std::string> seen;
  for (int i = 0; i < kNumCoveragePoints; ++i) {
    const std::string name = ToString(static_cast<CoveragePoint>(i));
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
    CoveragePoint p;
    ASSERT_TRUE(ParseCoveragePoint(name, &p)) << name;
    EXPECT_EQ(static_cast<int>(p), i);
    // Dotted lowercase: the documented form (docs/FUZZING.md).
    EXPECT_NE(name.find('.'), std::string::npos) << name;
    for (const char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '.' || c == '_')
          << name;
    }
  }
  CoveragePoint p;
  EXPECT_FALSE(ParseCoveragePoint("fault.not_a_kind", &p));
}

TEST(CoverageMapTest, HooksRecordIntoTheirOwnRunsMap) {
  CoverageMap mine;
  CoverageMap other;
  Observers run;
  run.coverage = &mine;
  // An unobserved run's hook records nowhere: this is the whole cost model of
  // a run with no map attached.
  VS_OBSERVE(Observers{}, coverage, Record(CoveragePoint::kBoostDenied));
  VS_OBSERVE(run, coverage, Record(CoveragePoint::kBoostDenied));
  VS_OBSERVE(run, coverage, Record(CoveragePoint::kBoostDenied));
  EXPECT_EQ(mine.count(CoveragePoint::kBoostDenied), 2);
  EXPECT_EQ(mine.covered_points(), 1);
  EXPECT_EQ(other.covered_points(), 0);

  // BeginRun starts the next run from zero.
  mine.BeginRun();
  EXPECT_EQ(mine.count(CoveragePoint::kBoostDenied), 0);
}

TEST(CoverageMapTest, PairFeaturesTrackDaemonState) {
  CoverageMap map;
  const int stall = static_cast<int>(CoveragePoint::kFaultDaemonStall);

  map.OnFaultBegin(stall);  // healthy daemon: base point only
  EXPECT_EQ(map.count(CoveragePoint::kFaultDaemonStall), 1);
  EXPECT_EQ(map.count(CoveragePoint::kPairDaemonStallDegraded), 0);

  map.OnDaemonDegrade();
  map.OnFaultBegin(stall);
  EXPECT_EQ(map.count(CoveragePoint::kPairDaemonStallDegraded), 1);
  EXPECT_EQ(map.count(CoveragePoint::kPairDaemonStallCrashed), 0);

  map.OnDaemonCrash();
  map.OnFaultBegin(stall);
  EXPECT_EQ(map.count(CoveragePoint::kPairDaemonStallDegraded), 2);
  EXPECT_EQ(map.count(CoveragePoint::kPairDaemonStallCrashed), 1);

  // A restart is a fresh process: both shadows clear.
  map.OnDaemonRestart();
  map.OnFaultBegin(stall);
  EXPECT_EQ(map.count(CoveragePoint::kPairDaemonStallDegraded), 2);
  EXPECT_EQ(map.count(CoveragePoint::kPairDaemonStallCrashed), 1);
  EXPECT_EQ(map.count(CoveragePoint::kFaultDaemonStall), 4);

  // A resume clears only the degradation shadow.
  map.OnDaemonDegrade();
  map.OnDaemonResume();
  map.OnFaultBegin(stall);
  EXPECT_EQ(map.count(CoveragePoint::kPairDaemonStallDegraded), 2);
}

TEST(CoverageMapTest, WatchdogTripDegradedCompound) {
  CoverageMap map;
  map.OnWatchdogTrip();
  EXPECT_EQ(map.count(CoveragePoint::kWatchdogTrip), 1);
  EXPECT_EQ(map.count(CoveragePoint::kWatchdogTripDegraded), 0);
  map.OnDaemonDegrade();
  map.OnWatchdogTrip();
  EXPECT_EQ(map.count(CoveragePoint::kWatchdogTripDegraded), 1);
  map.OnWatchdogRecovery();
  EXPECT_EQ(map.count(CoveragePoint::kWatchdogRecovery), 1);
}

TEST(CoverageMapTest, ShapeBins) {
  CoverageMap map;
  map.RecordShape(/*policy=*/static_cast<int>(Policy::kVscalePvlock),
                  /*domains=*/5, /*primary_vcpus=*/8, /*dedicated=*/false,
                  /*antagonist=*/true, /*hardened=*/true);
  const CoverageVector v = map.Vector();
  EXPECT_EQ(At(v, CoveragePoint::kShapeDomains5Plus), 1);
  EXPECT_EQ(At(v, CoveragePoint::kShapeVcpusLarge), 1);
  EXPECT_EQ(At(v, CoveragePoint::kShapeConsolidated), 1);
  EXPECT_EQ(At(v, CoveragePoint::kShapePolicyVscalePvlock), 1);
  EXPECT_EQ(At(v, CoveragePoint::kShapeAntagonist), 1);
  EXPECT_EQ(At(v, CoveragePoint::kShapeHardened), 1);
  EXPECT_EQ(CoveredPoints(v), 6);

  map.BeginRun();  // re-begin clears
  map.RecordShape(static_cast<int>(Policy::kBaseline), 1, 2, true, false,
                  false);
  EXPECT_TRUE(map.covered(CoveragePoint::kShapeDomains1));
  EXPECT_TRUE(map.covered(CoveragePoint::kShapeVcpusSmall));
  EXPECT_TRUE(map.covered(CoveragePoint::kShapeDedicated));
  EXPECT_TRUE(map.covered(CoveragePoint::kShapePolicyBaseline));
  EXPECT_EQ(map.covered_points(), 4);
}

TEST(CoverageMapTest, PublishMetricsExportsCovCounters) {
  CoverageMap map;
  map.Record(CoveragePoint::kTornReadRejected);
  MetricsRegistry reg;
  map.PublishMetrics(reg, "vscale.");
  EXPECT_EQ(reg.Counter("vscale.cov.channel.torn_read_rejected"), 1);
  EXPECT_EQ(reg.Counter("vscale.cov.fault.channel_stale"), 0);
}

// The testbed arms the attached map and bins the resolved shape — the
// RunMetrics path every oracle run and every --observers-check cell goes
// through.
TEST(CoverageTestbedTest, ArmsAndBinsResolvedShape) {
  CoverageMap map;
  MetricsRegistry metrics;
  {
    TestbedConfig cfg;
    cfg.policy = Policy::kVscale;
    cfg.primary_vcpus = 2;
    cfg.pool_pcpus = 2;
    cfg.background_vms = -1;  // dedicated
    cfg.observers.coverage = &map;
    cfg.observers.metrics = &metrics;
    Testbed bed(cfg);
    EXPECT_EQ(bed.sim().observers().coverage, &map);
    bed.sim().RunUntil(Milliseconds(50));
  }
  // Post-dtor: vector harvestable, cov.* metrics published.
  const CoverageVector v = map.Vector();
  EXPECT_EQ(At(v, CoveragePoint::kShapeDomains1), 1);
  EXPECT_EQ(At(v, CoveragePoint::kShapeDedicated), 1);
  EXPECT_EQ(At(v, CoveragePoint::kShapeVcpusSmall), 1);
  EXPECT_EQ(At(v, CoveragePoint::kShapePolicyVscale), 1);
  EXPECT_EQ(metrics.Value("vscale.cov.shape.policy_vscale"), 1);
}

TEST(CoverageGenTest, PredictedCoverageStaticPoints) {
  Scenario s;
  s.config.policy = Policy::kVscale;
  s.config.pool_pcpus = 4;
  s.config.primary_vcpus = 4;
  s.config.background_vms = -1;
  FaultEvent ev;
  ev.kind = FaultKind::kStealBurst;
  ev.start = Milliseconds(500);
  ev.duration = Milliseconds(100);
  ev.magnitude = 1;
  s.config.faults.events.push_back(ev);
  const CoverageVector pred = PredictedCoverage(s);
  EXPECT_GT(At(pred, CoveragePoint::kShapeDomains1), 0);
  EXPECT_GT(At(pred, CoveragePoint::kShapeDedicated), 0);
  EXPECT_GT(At(pred, CoveragePoint::kShapeVcpusSmall), 0);
  EXPECT_GT(At(pred, CoveragePoint::kShapePolicyVscale), 0);
  EXPECT_GT(At(pred, CoveragePoint::kFaultStealBurst), 0);
  // Dynamic points are never predicted.
  EXPECT_EQ(At(pred, CoveragePoint::kDaemonDegraded), 0);
  EXPECT_EQ(At(pred, CoveragePoint::kDominantRunning), 0);
}

TEST(CoverageGenTest, MutateIsDeterministicAndLegal) {
  const Scenario base = GenerateScenario(77);
  const Scenario m1 = MutateScenario(base, 9001);
  const Scenario m2 = MutateScenario(base, 9001);
  EXPECT_EQ(m1.ToString(), m2.ToString());
  EXPECT_EQ(m1.seed, 9001u);
  // A sweep of mutants must actually mutate: at least one differs from base.
  bool any_differs = false;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Scenario m = MutateScenario(base, seed);
    m.Validate();
    if (m.workloads != base.workloads ||
        m.config.policy != base.config.policy ||
        m.config.faults.events.size() != base.config.faults.events.size() ||
        m.config.antagonists.size() != base.config.antagonists.size() ||
        m.config.primary_vcpus != base.config.primary_vcpus) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(CoverageGenTest, BiasedDegeneratesToBlindOnSaturatedFrontier) {
  const CoverageVector full(kNumCoveragePoints, 1);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    EXPECT_EQ(GenerateScenarioBiased(seed, full).ToString(),
              GenerateScenario(seed).ToString());
  }
}

// A frontier count past int64 is a parse error, not a silent INT64_MAX.
TEST(CoverageTextTest, RejectsCountPastInt64) {
  std::istringstream in(
      "vscale-coverage v1\nfault.channel_stale 99999999999999999999\n");
  CoverageVector v;
  std::string error;
  EXPECT_FALSE(ParseCoverageText(in, &v, &error));
  EXPECT_NE(error.find("bad count"), std::string::npos) << error;
}

// Merging two huge counts saturates instead of wrapping negative, so the
// merged frontier still covers the point and parses back.
TEST(CoverageTextTest, MergeSaturatesAtInt64Max) {
  CoverageVector a(kNumCoveragePoints, 0);
  CoverageVector b(kNumCoveragePoints, 0);
  a[0] = INT64_MAX - 1;
  b[0] = INT64_MAX - 1;
  a[1] = 2;
  b[1] = 3;
  MergeCoverage(&a, b);
  EXPECT_EQ(a[0], INT64_MAX);
  EXPECT_EQ(a[1], 5);
  EXPECT_EQ(CoveredPoints(a), 2);
  std::stringstream text;
  WriteCoverageText(text, a);
  CoverageVector back;
  std::string error;
  ASSERT_TRUE(ParseCoverageText(text, &back, &error)) << error;
  EXPECT_EQ(back, a);
}

}  // namespace
}  // namespace vscale
