#include "src/fuzz/scenario_gen.h"

#include <algorithm>
#include <utility>

#include "src/base/rng.h"
#include "src/workloads/omp_app.h"

namespace vscale {

namespace {

// NPB kernels the generator draws from: everything but `ep`, whose 1.2 s
// grains make even a 2-interval run dominate a scenario's budget.
const char* const kGenApps[] = {"bt", "cg", "dc", "ft", "is",
                                "lu", "mg", "sp", "ua"};
constexpr int kGenAppCount = 9;

// Weighted policy draw, biased toward the vScale variants — they exercise the
// daemon/watchdog/fault surface the oracle battery checks hardest.
Policy DrawPolicy(Rng& rng) {
  const uint64_t r = rng.NextBelow(100);
  if (r < 15) return Policy::kBaseline;
  if (r < 30) return Policy::kBaselinePvlock;
  if (r < 70) return Policy::kVscale;
  return Policy::kVscalePvlock;
}

// Pool width, primary width and an explicit consolidation level; -1 = a
// dedicated machine. The auto-fill (0) is deliberately never drawn —
// scenarios state their topology outright.
void DrawTopology(Rng& topo, TestbedConfig* c) {
  c->pool_pcpus = static_cast<int>(topo.UniformInt(2, 8));
  c->primary_vcpus = static_cast<int>(topo.UniformInt(2, 8));
  c->background_vms = topo.Chance(0.4) ? -1 : static_cast<int>(topo.UniformInt(1, 3));
}

int64_t DrawSpinCount(Rng& rng) {
  const uint64_t r = rng.NextBelow(100);
  if (r < 30) return kSpinCountPassive;
  if (r < 90) return kSpinCountDefault;
  return kSpinCountActive;  // OMP_WAIT_POLICY=ACTIVE: the paper's worst case
}

WorkloadSpec DrawWorkload(Rng& rng, int primary_vcpus) {
  WorkloadSpec w;
  if (rng.Chance(0.75)) {
    w.kind = WorkloadSpec::Kind::kOmp;
    w.app = kGenApps[rng.NextBelow(kGenAppCount)];
    w.spin_count = DrawSpinCount(rng);
    // Size the interval count from the profile's grain so every app draws a
    // comparable dedicated-compute budget (60-250 ms) regardless of whether
    // its grains are 0.8 ms (lu) or 12 ms (ft).
    const TimeNs grain =
        NpbProfile(w.app, primary_vcpus, w.spin_count).grain_mean;
    const TimeNs budget = rng.UniformTime(Milliseconds(60), Milliseconds(250));
    w.intervals = std::clamp<int64_t>(budget / std::max<TimeNs>(grain, 1),
                                      2, 24);
  } else {
    w.kind = WorkloadSpec::Kind::kWeb;
    w.rps = rng.UniformInt(100, 400);
    w.start = Milliseconds(rng.UniformInt(200, 800));
    w.duration = Milliseconds(rng.UniformInt(1000, 3000));
    w.workers = static_cast<int>(rng.UniformInt(4, 8));
  }
  return w;
}

// Antagonist draw (docs/ADVERSARIAL.md). Kind defaults (period/duty = 0) keep
// generated scenarios on the attack cadences the bench validates; the freeze
// straggler only bites under a vScale policy with its own daemon, so it is
// remapped to a scheduler attack elsewhere.
AntagonistConfig DrawAntagonist(Rng& rng, Policy policy) {
  AntagonistConfig a;
  a.kind = static_cast<AntagonistKind>(rng.NextBelow(kNumAntagonistKinds));
  if (a.kind == AntagonistKind::kFreezeStraggler && !PolicyUsesVscale(policy)) {
    a.kind = AntagonistKind::kBoostAbuser;
  }
  a.vcpus = static_cast<int>(rng.UniformInt(1, 2));
  a.weight = 0;    // testbed default: same per-vCPU weight as everyone else
  a.period = 0;    // kind-default cadence
  a.duty_pct = 0;  // kind-default duty
  a.run_daemon = a.kind == AntagonistKind::kFreezeStraggler;
  return a;
}

FaultEvent DrawFault(Rng& rng, int pool_pcpus) {
  FaultEvent ev;
  ev.kind = static_cast<FaultKind>(rng.NextBelow(kNumFaultKinds));
  // ms-granular windows so minimized repro files stay human-readable.
  ev.start = Milliseconds(rng.UniformInt(300, 4000));
  ev.duration = Milliseconds(rng.UniformInt(50, 800));
  switch (ev.kind) {
    case FaultKind::kLatencySpike:
    case FaultKind::kFreezeHang:
      ev.magnitude = rng.UniformInt(2, 10);
      break;
    case FaultKind::kStealBurst:
      // Never steal the whole pool: a zero-pCPU machine cannot run anything,
      // and the liveness oracle would blame the victim scenario.
      ev.magnitude = rng.UniformInt(1, std::max(1, pool_pcpus - 1));
      break;
    case FaultKind::kIpiDup:
      ev.magnitude = rng.UniformInt(1, 4);  // extra deliveries per send
      break;
    case FaultKind::kIpiDelay:
      ev.magnitude = rng.UniformInt(5, 50);  // x ipi_deliver_cost
      break;
    case FaultKind::kPortMask: {
      // magnitude - 1 is the masked port; only the faultable ports matter
      // (resched=0, freeze=1, timer=3 -> magnitudes 1, 2, 4).
      static constexpr int64_t kMaskable[] = {1, 2, 4};
      ev.magnitude = kMaskable[rng.NextBelow(3)];
      break;
    }
    default:
      ev.magnitude = 0;  // kind default
  }
  return ev;
}

// Horizon sizing, shared by generation and mutation: generous by design. The
// oracle stops at workload completion, so a healthy run never consumes the
// slack; only a genuine hang pays it. The 10 s floor already dominates every
// drawable fault window (start <= 4 s, duration <= 0.8 s, + 3 s recovery
// margin) and web window (<= 3.8 s + drain).
TimeNs ComputeHorizon(const Scenario& s) {
  TimeNs omp_work = 0;
  TimeNs web_end = 0;
  for (const WorkloadSpec& w : s.workloads) {
    if (w.kind == WorkloadSpec::Kind::kOmp) {
      omp_work += w.intervals *
                  NpbProfile(w.app, s.config.primary_vcpus, w.spin_count)
                      .grain_mean;
    } else {
      web_end = std::max(web_end, w.start + w.duration);
    }
  }
  int antagonist_vcpus = 0;
  for (const AntagonistConfig& a : s.config.antagonists) {
    antagonist_vcpus += a.vcpus;
  }
  const ResolvedTopology topology = ResolveTopology(s.config);
  const int total_vcpus = s.config.primary_vcpus +
                          2 * topology.background_vms + antagonist_vcpus;
  const int64_t contention =
      (total_vcpus + topology.pool_pcpus - 1) / topology.pool_pcpus;
  // A working attack squeezes the primary harder than weight-fair contention
  // predicts; double the compute slack so the liveness oracle blames real
  // hangs, not a slow-but-progressing victim.
  const int64_t attack_slack = s.config.antagonists.empty() ? 1 : 2;
  return std::max<TimeNs>({Seconds(10),
                           omp_work * contention * 12 * attack_slack,
                           web_end + Seconds(2)});
}

// The generator's hardening block: the full mitigation suite, used both for
// fresh draws and for the mutation that arms a previously-unhardened cell.
void DrawHardening(Rng& rng, HardeningConfig* h) {
  h->acct_time_based = true;
  h->boost_budget = static_cast<int>(rng.UniformInt(1, 3));
  h->waited_cap_ratio = 2.0;
  h->plausibility_clamp = true;
}

// The delivery-hardening suite, drawn when a scenario plans delivery faults
// (kIpiDrop/kIpiDup/kIpiDelay/kPortMask): hardened cells arm the
// kNotificationLost oracle — a lost notification must degrade to latency, not
// wedge the freeze protocol (docs/FAULTS.md).
void DrawDeliveryHardening(Rng& rng, HardeningConfig* h) {
  h->ipi_dedup = true;
  h->freeze_resend_ns = Milliseconds(rng.UniformInt(2, 10));
  h->tick_rescue = true;
  h->reconciler = true;
}

// Draws the table's uniform knobs from the `knobs` stream in table order:
// every drawn knob for a fresh scenario, or only the kRedrawn subset.
void DrawKnobs(Rng& knobs, bool redrawn_only, Scenario* s) {
  using Draw = ScenarioKnob::Draw;
  for (const ScenarioKnob& k : ScenarioKnobs()) {
    if (k.draw == Draw::kRedrawn || (k.draw == Draw::kGenerated && !redrawn_only)) {
      k.set(*s, knobs.UniformInt(k.draw_lo, k.draw_hi) * k.draw_unit);
    }
  }
}

}  // namespace

Scenario GenerateScenario(uint64_t seed) {
  Rng root(seed);
  // Independent streams per dimension: adding a fault draw never shifts the
  // workload mix a seed produces, which keeps corpus seeds meaningful across
  // generator extensions that only append draws within one stream.
  Rng topo = root.Fork(0x70);
  Rng knobs = root.Fork(0x6b);
  Rng work = root.Fork(0x3c);
  Rng fault_rng = root.Fork(0xfa);
  Rng adv = root.Fork(0xad);  // antagonist/hardening draws, own stream

  Scenario s;
  s.seed = seed;
  s.config.seed = seed;
  s.config.policy = DrawPolicy(topo);
  DrawTopology(topo, &s.config);

  DrawKnobs(knobs, /*redrawn_only=*/false, &s);

  const int n_workloads = work.Chance(0.35) ? 2 : 1;
  for (int i = 0; i < n_workloads; ++i) {
    s.workloads.push_back(DrawWorkload(work, s.config.primary_vcpus));
  }

  // ~30% of scenarios carry one antagonist VM; half of those run hardened.
  // Unhardened cells keep the fairness oracle disarmed (the stock scheduler
  // losing to a working attack is the documented baseline, not a bug) but
  // still feed every other oracle — an antagonist must never hang, trip an
  // invariant, or break determinism whatever the flags say. Hardened cells
  // arm kFairnessViolation: the mitigations must actually hold the attacker
  // to its weight-fair entitlement across the whole random config space.
  if (adv.Chance(0.3)) {
    s.config.antagonists.push_back(DrawAntagonist(adv, s.config.policy));
    if (adv.Chance(0.5)) {
      DrawHardening(adv, &s.config.hardening);
    }
  }

  const int n_faults = [&] {
    const uint64_t r = fault_rng.NextBelow(100);
    if (r < 25) return 0;
    if (r < 55) return 1;
    if (r < 75) return 2;
    if (r < 90) return 3;
    return 4;
  }();
  for (int i = 0; i < n_faults; ++i) {
    s.config.faults.events.push_back(DrawFault(fault_rng, s.config.pool_pcpus));
  }
  s.config.faults.seed = fault_rng.NextU64();

  // Every cell that plans a delivery fault arms the delivery-hardening suite:
  // the stock kernel wedging on a dropped freeze/wake IPI is the *documented*
  // baseline (bench_chaos_recovery's negative control and the pinned
  // chaos_test twin assert it still does), so generating stock+delivery cells
  // would only rediscover it through the liveness/watchdog oracles. Hardened
  // cells instead arm kNotificationLost, which is the real fuzz target: a lost
  // notification must degrade to latency, never wedge.
  if (s.config.faults.HasDeliveryFault() &&
      !s.config.hardening.AnyDeliveryEnabled()) {
    DrawDeliveryHardening(adv, &s.config.hardening);
  }

  s.horizon = ComputeHorizon(s);

  s.Validate();
  return s;
}

Scenario MutateScenario(const Scenario& base, uint64_t seed) {
  Rng root(seed);
  // The mutation picker and each dimension's redraw get their own streams,
  // mirroring GenerateScenario's discipline: extending one mutation kind never
  // shifts what another kind produces for the same (base, seed).
  Rng pick = root.Fork(0x9c);
  Rng topo = root.Fork(0x70);
  Rng knobs = root.Fork(0x6b);
  Rng work = root.Fork(0x3c);
  Rng fault_rng = root.Fork(0xfa);
  Rng adv = root.Fork(0xad);

  Scenario s = base;
  s.seed = seed;
  s.config.seed = seed;

  switch (pick.NextBelow(6)) {
    case 0: {  // policy flip
      s.config.policy = DrawPolicy(topo);
      break;
    }
    case 1: {  // topology: pool width, primary width, consolidation level
      DrawTopology(topo, &s.config);
      break;
    }
    case 2: {  // workload mix: grow, shrink, or replace one entry
      if (s.workloads.size() < 2 && work.Chance(0.3)) {
        s.workloads.push_back(DrawWorkload(work, s.config.primary_vcpus));
      } else if (s.workloads.size() > 1 && work.Chance(0.3)) {
        s.workloads.erase(s.workloads.begin() +
                          static_cast<long>(work.NextBelow(s.workloads.size())));
      } else {
        s.workloads[work.NextBelow(s.workloads.size())] =
            DrawWorkload(work, s.config.primary_vcpus);
      }
      break;
    }
    case 3: {  // fault plan: add, redraw, or drop a window; fresh plan seed
      const size_t n = s.config.faults.events.size();
      const uint64_t r = fault_rng.NextBelow(3);
      if (r == 0 || n == 0) {
        s.config.faults.events.push_back(
            DrawFault(fault_rng, s.config.pool_pcpus));
      } else if (r == 1) {
        s.config.faults.events[fault_rng.NextBelow(n)] =
            DrawFault(fault_rng, s.config.pool_pcpus);
      } else {
        s.config.faults.events.erase(
            s.config.faults.events.begin() +
            static_cast<long>(fault_rng.NextBelow(n)));
      }
      s.config.faults.seed = fault_rng.NextU64();
      // Same pairing rule as generation: a plan that now carries a delivery
      // fault always arms the delivery-hardening suite (stock wedging is the
      // documented baseline, not a fuzz target).
      if (s.config.faults.HasDeliveryFault() &&
          !s.config.hardening.AnyDeliveryEnabled()) {
        DrawDeliveryHardening(fault_rng, &s.config.hardening);
      }
      break;
    }
    case 4: {  // adversarial block: add an antagonist, drop it, or flip armor
      if (s.config.antagonists.empty()) {
        s.config.antagonists.push_back(DrawAntagonist(adv, s.config.policy));
        if (adv.Chance(0.5)) DrawHardening(adv, &s.config.hardening);
      } else if (adv.Chance(0.5)) {
        s.config.antagonists.clear();
        s.config.hardening = HardeningConfig{};
      } else if (s.config.hardening.AnyEnabled()) {
        s.config.hardening = HardeningConfig{};
      } else {
        DrawHardening(adv, &s.config.hardening);
      }
      break;
    }
    default: {  // daemon/watchdog knob redraw, same ranges as the generator
      DrawKnobs(knobs, /*redrawn_only=*/true, &s);
      break;
    }
  }

  // Cross-dimension repairs, whatever mutated: a steal burst must leave the
  // (possibly shrunk) pool a pCPU, and a freeze straggler only exists under a
  // vScale policy — the same rules the fresh draws enforce.
  for (FaultEvent& ev : s.config.faults.events) {
    if (ev.kind == FaultKind::kStealBurst && ev.magnitude > 0) {
      ev.magnitude = std::min<int64_t>(ev.magnitude,
                                       std::max(1, s.config.pool_pcpus - 1));
    }
    if (ev.kind == FaultKind::kPortMask && ev.magnitude != 0 &&
        ev.magnitude != 1 && ev.magnitude != 2 && ev.magnitude != 4) {
      // magnitude - 1 must name a faultable port (resched/freeze/timer);
      // anything else masks nothing — snap to the freeze port, the default.
      ev.magnitude = 2;
    }
  }
  for (AntagonistConfig& a : s.config.antagonists) {
    if (a.kind == AntagonistKind::kFreezeStraggler &&
        !PolicyUsesVscale(s.config.policy)) {
      a.kind = AntagonistKind::kBoostAbuser;
      a.run_daemon = false;
    }
  }

  s.horizon = ComputeHorizon(s);
  s.Validate();
  return s;
}

CoverageVector PredictedCoverage(const Scenario& s) {
  CoverageVector v(kNumCoveragePoints, 0);
  const auto hit = [&v](CoveragePoint p) { ++v[static_cast<size_t>(p)]; };

  // Resolve and bin the topology exactly as the Testbed constructor does.
  const ResolvedTopology topology = ResolveTopology(s.config);
  for (const CoveragePoint p :
       ShapePoints(static_cast<int>(s.config.policy), topology.domains,
                   s.config.primary_vcpus, topology.background_vms == 0,
                   !s.config.antagonists.empty(),
                   s.config.hardening.AnyEnabled())) {
    hit(p);
  }

  // One fault.* point per planned window: the oracle never stops a run before
  // every window has opened and closed, so a planned kind is a reached kind.
  for (const FaultEvent& ev : s.config.faults.events) {
    hit(static_cast<CoveragePoint>(
        static_cast<int>(CoveragePoint::kFaultChannelStale) +
        static_cast<int>(ev.kind)));
  }
  return v;
}

Scenario GenerateScenarioBiased(uint64_t seed, const CoverageVector& frontier) {
  constexpr int kCandidates = 4;
  // Extra candidate seeds come from a stream salted away from the sweep's own
  // seed line, so a biased sweep never just replays its blind neighbors.
  Rng extra(seed ^ 0xb1a5ull);
  Scenario best;
  int best_score = -1;
  for (int i = 0; i < kCandidates; ++i) {
    Scenario cand = GenerateScenario(i == 0 ? seed : extra.NextU64());
    const CoverageVector pred = PredictedCoverage(cand);
    int score = 0;
    for (int p = 0; p < kNumCoveragePoints; ++p) {
      const bool in_frontier = static_cast<size_t>(p) < frontier.size() &&
                               frontier[static_cast<size_t>(p)] > 0;
      if (pred[static_cast<size_t>(p)] > 0 && !in_frontier) ++score;
    }
    if (score > best_score) {
      best_score = score;
      best = std::move(cand);
    }
  }
  return best;
}

}  // namespace vscale
