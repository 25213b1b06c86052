// Tests for the deterministic scenario fuzzer (src/fuzz/, docs/FUZZING.md):
// generator legality and determinism, the .scenario canonical-text round-trip,
// parser error reporting, the oracle battery's pass/fail decisions, and the
// shrinker's same-verdict minimization — including the planted canary bug the
// fuzz_canary ctest entry hunts end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/fuzz/oracle.h"
#include "src/fuzz/scenario.h"
#include "src/fuzz/scenario_gen.h"
#include "src/fuzz/shrinker.h"
#include "src/workloads/testbed.h"

namespace vscale {
namespace {

// RAII canary arm/disarm so a failing test cannot leak the planted bug into
// later tests.
struct ArmedCanary {
  ArmedCanary() { SetFuzzCanary(true); }
  ~ArmedCanary() { SetFuzzCanary(false); }
};
struct ArmedFairnessCanary {
  ArmedFairnessCanary() { SetFairnessCanary(true); }
  ~ArmedFairnessCanary() { SetFairnessCanary(false); }
};

// A deliberately tiny scenario the oracle can run in milliseconds: dedicated
// 2-pCPU machine, 2-vCPU guest, one 2-interval cg run.
Scenario TinyScenario(uint64_t seed) {
  Scenario s;
  s.seed = seed;
  s.config.seed = seed;
  s.config.policy = Policy::kVscale;
  s.config.pool_pcpus = 2;
  s.config.primary_vcpus = 2;
  s.config.background_vms = -1;
  s.horizon = Seconds(8);
  WorkloadSpec w;
  w.kind = WorkloadSpec::Kind::kOmp;
  w.app = "cg";
  w.intervals = 2;
  s.workloads.push_back(w);
  return s;
}

// --- generator -------------------------------------------------------------

TEST(ScenarioGenTest, GeneratedScenariosAreLegalAndDeterministic) {
  ViolationCapture cap;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    const Scenario a = GenerateScenario(seed);
    const Scenario b = GenerateScenario(seed);
    EXPECT_EQ(a.ToString(), b.ToString()) << "seed " << seed;
    EXPECT_GE(a.config.pool_pcpus, 1);
    EXPECT_FALSE(a.workloads.empty());
    EXPECT_GT(a.horizon, 0);
    // Liveness headroom the oracle depends on: every fault window closes
    // strictly before the horizon.
    for (const FaultEvent& ev : a.config.faults.events) {
      EXPECT_LT(ev.end(), a.horizon) << "seed " << seed;
    }
  }
  // GenerateScenario self-validates; a legal scenario reports nothing.
  EXPECT_TRUE(cap.reports().empty())
      << "generator emitted an illegal scenario: " << cap.reports()[0].message;
}

TEST(ScenarioGenTest, SeedsDiversifyTheGrammar) {
  // One pass over a seed range must exercise every major dimension: both
  // workload kinds, fault-free and faulted plans, dedicated and consolidated
  // topologies, and at least one non-vScale policy.
  bool saw_omp = false, saw_web = false, saw_faults = false;
  bool saw_fault_free = false, saw_dedicated = false, saw_consolidated = false;
  bool saw_non_vscale = false;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const Scenario s = GenerateScenario(seed);
    for (const WorkloadSpec& w : s.workloads) {
      (w.kind == WorkloadSpec::Kind::kOmp ? saw_omp : saw_web) = true;
    }
    (s.config.faults.empty() ? saw_fault_free : saw_faults) = true;
    (s.config.background_vms < 0 ? saw_dedicated : saw_consolidated) = true;
    if (!PolicyUsesVscale(s.config.policy)) saw_non_vscale = true;
  }
  EXPECT_TRUE(saw_omp && saw_web);
  EXPECT_TRUE(saw_faults && saw_fault_free);
  EXPECT_TRUE(saw_dedicated && saw_consolidated);
  EXPECT_TRUE(saw_non_vscale);
}

// FNV-64 folded over canonical scenario texts.
constexpr uint64_t kFnvOffset = 14695981039346656037ull;
uint64_t Fnv64(uint64_t h, const std::string& text) {
  for (const unsigned char c : text) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

TEST(ScenarioGenTest, SeedsGenerateThePinnedScenarios) {
  // Seed stability: the same seed must generate (and mutate into) the same
  // scenario forever, or every corpus seed and soak range silently changes
  // meaning. The constants hash the canonical text, so they also pin the knob
  // table's line order and the generator's RNG draw order.
  uint64_t generated = kFnvOffset;
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    generated = Fnv64(generated, GenerateScenario(seed).ToString());
  }
  EXPECT_EQ(generated, 0xa15f1e85c9c8e8f8ull);

  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(VSCALE_CORPUS_DIR)) {
    if (e.path().extension() == ".scenario") files.push_back(e.path().string());
  }
  std::sort(files.begin(), files.end());
  // The mutation constant covers exactly this corpus; a new corpus file needs
  // the constant recomputed from the commit before the one adding it.
  ASSERT_EQ(files.size(), 9u);
  uint64_t mutated = kFnvOffset;
  for (const std::string& path : files) {
    Scenario base;
    std::string error;
    ASSERT_TRUE(LoadScenarioFile(path, &base, &error)) << error;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      mutated = Fnv64(mutated, MutateScenario(base, seed).ToString());
    }
  }
  EXPECT_EQ(mutated, 0x78b2a5d212b5e0c3ull);
}

// --- canonical text round-trip ---------------------------------------------

TEST(ScenarioTextTest, ToStringParseRoundTripsGeneratedScenarios) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const Scenario s = GenerateScenario(seed);
    const std::string text = s.ToString();
    Scenario parsed;
    std::string error;
    ASSERT_TRUE(ParseScenario(text, &parsed, &error))
        << "seed " << seed << ": " << error;
    EXPECT_EQ(parsed.seed, s.seed);
    EXPECT_EQ(parsed.config.seed, s.config.seed);
    EXPECT_EQ(parsed.config.policy, s.config.policy);
    EXPECT_EQ(parsed.config.faults, s.config.faults);
    EXPECT_EQ(parsed.workloads, s.workloads);
    EXPECT_EQ(parsed.horizon, s.horizon);
    // The canonical form is a fixpoint: re-serializing reproduces the text.
    EXPECT_EQ(parsed.ToString(), text) << "seed " << seed;
  }

  // Every table knob round-trips at a non-default value, and the sections
  // omitted at their default vanish from the text there.
  using Section = ScenarioKnob::Section;
  for (const ScenarioKnob& k : ScenarioKnobs()) {
    const std::string line_start = "\n" + std::string(k.key) + " ";
    Scenario s = TinyScenario(1);
    s.config.hardening.reconciler = k.section == Section::kReconciler;
    const int64_t value =
        k.width == ScenarioKnob::Width::kBool ? 1 - k.get(s) : k.get(s) + 1;
    k.set(s, value);
    const std::string text = s.ToString();
    EXPECT_NE(text.find(line_start), std::string::npos) << k.key;
    Scenario parsed;
    std::string error;
    ASSERT_TRUE(ParseScenario(text, &parsed, &error)) << k.key << ": " << error;
    EXPECT_EQ(k.get(parsed), value) << k.key;
    EXPECT_EQ(parsed.ToString(), text) << k.key;

    if (k.section == Section::kHardening) k.set(s, 0);
    s.config.hardening.reconciler = false;
    const bool omitted = s.ToString().find(line_start) == std::string::npos;
    EXPECT_EQ(omitted, k.section == Section::kHardening ||
                           k.section == Section::kReconciler)
        << k.key;
  }
}

TEST(ScenarioTextTest, ParseSkipsCommentsAndBlankLines) {
  const Scenario s = GenerateScenario(4);
  std::string text = "# a fuzzer find, triaged 2026-08\n\n" + s.ToString();
  Scenario parsed;
  std::string error;
  ASSERT_TRUE(ParseScenario(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.ToString(), s.ToString());
}

TEST(ScenarioTextTest, ParseErrorsNameTheLineAndToken) {
  const struct {
    const char* text;
    const char* fragment;
  } kCases[] = {
      {"", "missing scenario header"},
      {"bogus header\n", "expected header"},
      {"vscale-scenario v1\nfrobnicate 3\n", "unknown key \"frobnicate\""},
      {"vscale-scenario v1\npcpus four\n", "bad integer value for pcpus"},
      {"vscale-scenario v1\npolicy esx\n", "unknown policy \"esx\""},
      {"vscale-scenario v1\nworkload omp app=lu intervals=x\n",
       "unknown or malformed workload token"},
      {"vscale-scenario v1\nworkload gpu model=a100\n",
       "unknown workload kind \"gpu\""},
      {"vscale-scenario v1\nfaults crash@1s\n", "bad fault plan"},
      {"vscale-scenario v1\nseed -1\n", "bad uint64 for seed"},
      // Strict integers: no silent wrap into the field, no int64/uint64
      // overflow, no second value quietly overriding the first.
      {"vscale-scenario v1\npcpus 4294967298\n",
       "pcpus value 4294967298 outside [-2147483648, 2147483647]"},
      {"vscale-scenario v1\nseed 18446744073709551617\n",
       "bad uint64 for seed"},
      {"vscale-scenario v1\ncrunch_ns 9223372036854775808\n",
       "bad integer value for crunch_ns"},
      {"vscale-scenario v1\nhardening.tick_rescue 2\n", "outside [0, 1]"},
      {"vscale-scenario v1\npcpus 4\npcpus 2\n",
       "line 3: duplicate key \"pcpus\" (first set on line 2)"},
  };
  for (const auto& c : kCases) {
    Scenario out = GenerateScenario(1);
    const std::string before = out.ToString();
    std::string error;
    EXPECT_FALSE(ParseScenario(c.text, &out, &error)) << c.text;
    EXPECT_NE(error.find(c.fragment), std::string::npos)
        << "error for \"" << c.text << "\" was: " << error;
    // Failed parses leave the output scenario untouched.
    EXPECT_EQ(out.ToString(), before);
  }
}

TEST(ScenarioTextTest, ValidateRejectsUntrustworthyScenarios) {
  {
    ViolationCapture cap;
    Scenario s = TinyScenario(1);
    s.workloads.clear();
    s.Validate();
    ASSERT_FALSE(cap.reports().empty());
    EXPECT_NE(cap.reports()[0].message.find("must not be empty"), std::string::npos);
  }
  {
    ViolationCapture cap;
    Scenario s = TinyScenario(1);
    s.workloads[0].app = "linpack";
    s.Validate();
    ASSERT_FALSE(cap.reports().empty());
    EXPECT_NE(cap.reports()[0].message.find("unknown NPB app"), std::string::npos);
  }
  {
    ViolationCapture cap;
    Scenario s = TinyScenario(1);
    s.config.faults.Add(FaultKind::kDaemonStall, s.horizon - Milliseconds(1),
                        Milliseconds(10));
    s.Validate();
    ASSERT_FALSE(cap.reports().empty());
    EXPECT_NE(cap.reports()[0].message.find("recovery room"), std::string::npos);
  }
  {
    ViolationCapture cap;
    Scenario s = TinyScenario(1);
    WorkloadSpec web;
    web.kind = WorkloadSpec::Kind::kWeb;
    web.start = s.horizon - Milliseconds(100);
    web.duration = Milliseconds(200);
    s.workloads.push_back(web);
    s.Validate();
    ASSERT_FALSE(cap.reports().empty());
    EXPECT_NE(cap.reports()[0].message.find("past the"), std::string::npos);
  }
  {
    // The legal counterpart: an auto-filled consolidation level (0) counts
    // the desktops the testbed resolves it to, not zero of them.
    Scenario s = TinyScenario(1);
    s.config.pool_pcpus = 4;
    s.config.background_vms = 0;
    EXPECT_TRUE(s.ProbeLegal(nullptr));
    Testbed bed(s.config);
    EXPECT_EQ(s.Domains(), bed.machine().n_domains());
    EXPECT_EQ(s.Domains(), 4);  // primary + (2 * 4 - 2) / 2 desktops
  }
}

// --- oracle battery --------------------------------------------------------

TEST(OracleTest, TinyScenarioPassesAllOracles) {
  const OracleReport report = RunOracle(TinyScenario(11));
  EXPECT_EQ(report.verdict, OracleVerdict::kPass) << report.detail;
  // The double-run actually ran and agreed.
  EXPECT_EQ(report.digest1, report.digest2);
  EXPECT_NE(report.digest1, 0u);
}

TEST(OracleTest, VerdictTokensAreStable) {
  EXPECT_STREQ(ToString(OracleVerdict::kPass), "pass");
  EXPECT_STREQ(ToString(OracleVerdict::kInvariantViolation),
               "invariant-violation");
  EXPECT_STREQ(ToString(OracleVerdict::kStallNonExhaustive),
               "stall-non-exhaustive");
  EXPECT_STREQ(ToString(OracleVerdict::kNonTermination), "non-termination");
  EXPECT_STREQ(ToString(OracleVerdict::kWatchdogNoRecovery),
               "watchdog-no-recovery");
  EXPECT_STREQ(ToString(OracleVerdict::kDigestDivergence),
               "digest-divergence");
}

TEST(OracleTest, CanaryBitesOnlyCrashScenariosAndOnlyWhenArmed) {
  Scenario crash = TinyScenario(21);
  crash.config.faults.Add(FaultKind::kDaemonCrash, Milliseconds(500),
                          Milliseconds(300));
  Scenario benign = TinyScenario(21);
  benign.config.faults.Add(FaultKind::kDaemonStall, Milliseconds(500),
                           Milliseconds(300));

  // Disarmed: both pass.
  EXPECT_EQ(RunOracle(crash).verdict, OracleVerdict::kPass);
  EXPECT_EQ(RunOracle(benign).verdict, OracleVerdict::kPass);

  {
    ArmedCanary armed;
    EXPECT_TRUE(FuzzCanaryEnabled());
    // Run 2, on the worker thread, sees the leaked seed.
    const OracleReport report = RunOracle(crash);
    EXPECT_EQ(report.verdict, OracleVerdict::kDigestDivergence);
    EXPECT_NE(report.digest2, 0u);
    EXPECT_NE(report.digest1, report.digest2);
    // The canary keys on the daemon-crash fault, so non-crash plans stay clean.
    EXPECT_EQ(RunOracle(benign).verdict, OracleVerdict::kPass);
  }

  // A run-1 failure reports run 1 alone: run 2 ran beside it, but its digest
  // and coverage are discarded, as if it had never run.
  Scenario attacked;
  std::string error;
  ASSERT_TRUE(LoadScenarioFile(
      std::string(VSCALE_CORPUS_DIR) + "/antagonist_tick_evader_hardened.scenario",
      &attacked, &error))
      << error;
  ArmedFairnessCanary armed;
  const OracleReport report = RunOracle(attacked);
  EXPECT_EQ(report.verdict, OracleVerdict::kFairnessViolation) << report.detail;
  EXPECT_NE(report.digest1, 0u);
  EXPECT_EQ(report.digest2, 0u);
  EXPECT_TRUE(report.coverage_stable);
}

// --- shrinker --------------------------------------------------------------

TEST(ShrinkerTest, MinimizesCanaryFindToTheLoadBearingFault) {
  ArmedCanary armed;
  Scenario s = TinyScenario(31);
  s.config.background_vms = 2;
  s.config.faults.Add(FaultKind::kDaemonStall, Milliseconds(400),
                      Milliseconds(200));
  s.config.faults.Add(FaultKind::kDaemonCrash, Milliseconds(900),
                      Milliseconds(300));
  s.config.faults.Add(FaultKind::kStealBurst, Milliseconds(1400),
                      Milliseconds(200), 1);
  WorkloadSpec extra;
  extra.kind = WorkloadSpec::Kind::kOmp;
  extra.app = "lu";
  extra.intervals = 4;
  s.workloads.push_back(extra);

  const OracleReport before = RunOracle(s);
  ASSERT_EQ(before.verdict, OracleVerdict::kDigestDivergence) << before.detail;

  ShrinkStats stats;
  const Scenario minimal =
      ShrinkScenario(s, before.verdict, /*max_oracle_runs=*/120, &stats);

  // Only the crash event is load-bearing; everything else must be gone.
  ASSERT_EQ(minimal.config.faults.events.size(), 1u);
  EXPECT_EQ(minimal.config.faults.events[0].kind, FaultKind::kDaemonCrash);
  EXPECT_EQ(minimal.workloads.size(), 1u);
  EXPECT_EQ(minimal.Domains(), 1);
  EXPECT_LT(minimal.horizon, s.horizon);
  EXPECT_GT(stats.accepted, 0);
  EXPECT_LE(stats.oracle_runs, 120);

  // The minimized scenario still fails identically, survives serialization,
  // and is still Validate()-legal.
  EXPECT_EQ(RunOracle(minimal).verdict, OracleVerdict::kDigestDivergence);
  Scenario reparsed;
  std::string error;
  ASSERT_TRUE(ParseScenario(minimal.ToString(), &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.ToString(), minimal.ToString());
  ViolationCapture cap;
  minimal.Validate();
  EXPECT_TRUE(cap.reports().empty());
}

TEST(ShrinkerTest, RejectsCandidatesThatFailDifferently) {
  // A scenario whose only failure is the canary divergence: shrinking with a
  // *different* expected verdict must keep the original untouched (every
  // candidate fails the same-verdict acceptance test).
  ArmedCanary armed;
  Scenario s = TinyScenario(41);
  s.config.faults.Add(FaultKind::kDaemonCrash, Milliseconds(500),
                      Milliseconds(200));
  ShrinkStats stats;
  const Scenario out = ShrinkScenario(s, OracleVerdict::kWatchdogNoRecovery,
                                      /*max_oracle_runs=*/40, &stats);
  EXPECT_EQ(out.ToString(), s.ToString());
  EXPECT_EQ(stats.accepted, 0);
}

}  // namespace
}  // namespace vscale
