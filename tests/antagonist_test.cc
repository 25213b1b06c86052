// Pinned adversarial regressions (docs/ADVERSARIAL.md): the attack shapes
// from bench_antagonist, asserted both ways — the stock scheduler must stay
// gameable (so the attacks remain a live test of the mitigations, not dead
// rigs) and the hardened scheduler must stay fair. Plus the contract that
// makes the hardening shippable at all: with every mitigation off, runs are
// bit-identical to the seed scheduler (digest double-run).

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/check.h"
#include "src/metrics/state_digest.h"
#include "src/vscale/ticker.h"
#include "src/workloads/antagonist.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/testbed.h"

namespace vscale {
namespace {

constexpr uint64_t kSeed = 424242;
constexpr int kEpsPct = 25;
constexpr TimeNs kDeadline = Seconds(40);

// The bench_antagonist contended rig: 2 pCPUs, 3-vCPU primary saturating them
// with NPB ep, one attacking VM. Kept in lockstep with bench/bench_antagonist.cc
// so a rig change that kills an attack fails here by name.
struct RigResult {
  double share = 0.0;         // attacker share_of_fair, whole run
  bool violated = false;      // aggregate FairnessViolated
  TimeNs theft = 0;           // FairnessProbe windowed theft
  TimeNs theft_floor = 0;     // the fuzz oracle's trip threshold
  TimeNs slack = 0;           // extendability granted beyond fair (vScale)
  int64_t cycles = 0;
  std::string digest;
};

RigResult RunRig(const AntagonistConfig& attacker, Policy policy,
                 const HardeningConfig& hardening, int background_vms = -1) {
  attacker.Validate();
  TestbedConfig tb;
  tb.policy = policy;
  tb.primary_vcpus = 3;
  tb.pool_pcpus = 2;
  tb.background_vms = background_vms;
  tb.seed = kSeed;
  tb.antagonists.push_back(attacker);
  tb.hardening = hardening;
  Testbed bed(tb);

  FairnessProbe probe(bed.machine(), bed.antagonist_domain_ids(), kEpsPct);
  TimeNs slack = 0;
  if (bed.ticker() != nullptr) {
    const size_t atk = static_cast<size_t>(bed.antagonist_domain_ids()[0]);
    bed.ticker()->on_pass =
        [&slack, atk](TimeNs, const std::vector<VmExtendability>& vms) {
          if (vms[atk].ext_ns > vms[atk].fair_ns) {
            slack += vms[atk].ext_ns - vms[atk].fair_ns;
          }
        };
  }

  OmpAppConfig ac = NpbProfile("ep", /*threads=*/3, kSpinCountPassive);
  ac.intervals = 3;
  OmpApp app(bed.primary(), ac, kSeed ^ 0x9e3779b97f4a7c15ull);
  app.Start();
  bed.RunUntil([&] { return app.done(); }, kDeadline);
  EXPECT_TRUE(app.done());

  RigResult out;
  const DomainId atk = bed.antagonist_domain_ids()[0];
  const FairnessReport report = ComputeFairness(bed.machine());
  for (const DomainFairness& d : report.domains) {
    if (d.id == atk) {
      out.share = d.share_of_fair;
    }
  }
  out.violated = FairnessViolated(report, atk, kEpsPct / 100.0, nullptr);
  out.theft = probe.max_theft();
  out.theft_floor = probe.sampled_capacity() / 200;
  out.slack = slack;
  out.cycles = bed.antagonist(0).cycles();
  StateDigest digest;
  digest.Absorb(app.duration());
  digest.AbsorbMachine(bed.machine());
  digest.AbsorbGuest(bed.primary());
  out.digest = digest.Hex();
  return out;
}

AntagonistConfig TickEvaderAttack() {
  AntagonistConfig a;
  a.kind = AntagonistKind::kTickEvader;
  a.vcpus = 2;
  a.weight = 256;
  return a;
}

AntagonistConfig BoostAbuserAttack() {
  // Window-scale bursts: sleep long enough to re-arm the stock idle refill
  // (weight-independent credit := +period), then BOOST-preempt into a fully
  // credit-backed 30 ms binge — ~2x the paid-for share at weight 128.
  AntagonistConfig a;
  a.kind = AntagonistKind::kBoostAbuser;
  a.vcpus = 2;
  a.weight = 128;
  a.period = Milliseconds(90);
  a.duty_pct = 33;
  return a;
}

AntagonistConfig ChurnAttack() {
  // 150 us cadence wakes into a freshly rescheduled victim, so every cycle
  // eats a near-full ratelimit deferral as runnable-wait: demand inflation
  // at ~zero consumption.
  AntagonistConfig a;
  a.kind = AntagonistKind::kChurn;
  a.vcpus = 2;
  a.period = Microseconds(150);
  return a;
}

HardeningConfig FullHardening() {
  HardeningConfig h;
  h.acct_time_based = true;
  h.boost_budget = 2;
  h.waited_cap_ratio = 2.0;
  h.plausibility_clamp = true;
  return h;
}

// --- the attacks must keep beating the stock scheduler ---

TEST(AntagonistAttackTest, TickEvaderStealsPastEntitlementUnhardened) {
  const RigResult r =
      RunRig(TickEvaderAttack(), Policy::kBaselinePvlock, HardeningConfig{});
  EXPECT_GT(r.share, 1.0 + kEpsPct / 100.0);
  EXPECT_TRUE(r.violated);
  EXPECT_GT(r.theft, r.theft_floor);
  EXPECT_GT(r.cycles, 0);
}

TEST(AntagonistAttackTest, BoostAbuserStealsPastEntitlementUnhardened) {
  const RigResult r =
      RunRig(BoostAbuserAttack(), Policy::kBaselinePvlock, HardeningConfig{});
  EXPECT_GT(r.share, 1.0 + kEpsPct / 100.0);
  EXPECT_TRUE(r.violated);
  EXPECT_GT(r.theft, r.theft_floor);
}

TEST(AntagonistAttackTest, ChurnInflatesExtendabilityUnhardened) {
  const RigResult r = RunRig(ChurnAttack(), Policy::kVscalePvlock,
                             HardeningConfig{}, /*background_vms=*/1);
  // The take is control-plane slack, not CPU share: the inflated runnable-wait
  // classifies churn as a starved competitor and hands it the desktop's
  // quiet-phase slack.
  EXPECT_GT(r.slack, Milliseconds(20));
  EXPECT_LT(r.share, 1.0);  // it burns almost nothing
}

// --- the mitigations must keep neutralizing them ---

TEST(AntagonistHardeningTest, TickEvaderNeutralized) {
  const RigResult r =
      RunRig(TickEvaderAttack(), Policy::kBaselinePvlock, FullHardening());
  EXPECT_LT(r.share, 1.0 + kEpsPct / 100.0);
  EXPECT_FALSE(r.violated);
  EXPECT_LE(r.theft, r.theft_floor);
  EXPECT_GT(r.cycles, 0);  // neutralized, not starved into silence
}

TEST(AntagonistHardeningTest, BoostAbuserNeutralized) {
  const RigResult r =
      RunRig(BoostAbuserAttack(), Policy::kBaselinePvlock, FullHardening());
  EXPECT_LT(r.share, 1.0 + kEpsPct / 100.0);
  EXPECT_FALSE(r.violated);
  EXPECT_LE(r.theft, r.theft_floor);
}

TEST(AntagonistHardeningTest, WaitedCapCollapsesChurnSlack) {
  const RigResult unhardened = RunRig(ChurnAttack(), Policy::kVscalePvlock,
                                      HardeningConfig{}, /*background_vms=*/1);
  const RigResult hardened = RunRig(ChurnAttack(), Policy::kVscalePvlock,
                                    FullHardening(), /*background_vms=*/1);
  ASSERT_GT(unhardened.slack, 0);
  EXPECT_LT(hardened.slack, unhardened.slack / 2);
}

// --- and with every mitigation off, runs must stay deterministic ---

TEST(AntagonistDigestTest, MitigationsOffRunsAreBitIdentical) {
  const RigResult a =
      RunRig(TickEvaderAttack(), Policy::kBaselinePvlock, HardeningConfig{});
  const RigResult b =
      RunRig(TickEvaderAttack(), Policy::kBaselinePvlock, HardeningConfig{});
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.theft, b.theft);
}

TEST(AntagonistDigestTest, HardenedRunsAreBitIdenticalToo) {
  const RigResult a =
      RunRig(BoostAbuserAttack(), Policy::kBaselinePvlock, FullHardening());
  const RigResult b =
      RunRig(BoostAbuserAttack(), Policy::kBaselinePvlock, FullHardening());
  EXPECT_EQ(a.digest, b.digest);
}

// --- probe sanity: an honest VM of the same size accrues no theft ---

TEST(FairnessProbeTest, HonestLoadAccruesNoTheft) {
  TestbedConfig tb;
  tb.policy = Policy::kBaselinePvlock;
  tb.primary_vcpus = 3;
  tb.pool_pcpus = 2;
  tb.background_vms = 1;
  tb.seed = kSeed;
  Testbed bed(tb);
  // Watch the (honest, bursty) desktop domain as if it were an attacker: the
  // token bucket must read its burst/think pattern as banked-share spending.
  const DomainId desktop = bed.machine().domains()[1]->id();
  FairnessProbe probe(bed.machine(), {desktop}, kEpsPct);
  OmpAppConfig ac = NpbProfile("ep", /*threads=*/3, kSpinCountPassive);
  ac.intervals = 2;
  OmpApp app(bed.primary(), ac, kSeed ^ 0x9e3779b97f4a7c15ull);
  app.Start();
  bed.RunUntil([&] { return app.done(); }, kDeadline);
  EXPECT_LE(probe.max_theft(), probe.sampled_capacity() / 200);
}

// --- config validation ---

TEST(AntagonistConfigTest, ValidateRejectsNonsense) {
  {
    ViolationCapture cap;
    AntagonistConfig{}.Validate();
    EXPECT_TRUE(cap.reports().empty());
  }
  struct Case {
    const char* what;
    void (*mutate)(AntagonistConfig*);
  };
  const Case cases[] = {
      {"vcpus", [](AntagonistConfig* a) { a->vcpus = 0; }},
      {"vcpus", [](AntagonistConfig* a) { a->vcpus = 65; }},
      {"weight", [](AntagonistConfig* a) { a->weight = -1; }},
      {"period", [](AntagonistConfig* a) { a->period = -5; }},
      {"duty_pct", [](AntagonistConfig* a) { a->duty_pct = 101; }},
  };
  for (const Case& c : cases) {
    ViolationCapture cap;
    AntagonistConfig a;
    c.mutate(&a);
    a.Validate();
    ASSERT_FALSE(cap.reports().empty()) << c.what;
    EXPECT_NE(cap.reports().front().message.find(c.what), std::string::npos)
        << c.what << " -> " << cap.reports().front().message;
  }
}

TEST(AntagonistConfigTest, KindNamesRoundTrip) {
  for (int i = 0; i < kNumAntagonistKinds; ++i) {
    const AntagonistKind k = static_cast<AntagonistKind>(i);
    AntagonistKind back = AntagonistKind::kTickEvader;
    EXPECT_TRUE(ParseAntagonistKind(ToString(k), &back)) << ToString(k);
    EXPECT_EQ(back, k);
  }
  AntagonistKind out;
  EXPECT_FALSE(ParseAntagonistKind("warp-drive", &out));
}

}  // namespace
}  // namespace vscale
