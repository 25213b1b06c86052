// Antagonist bench: the four scheduler attacks of docs/ADVERSARIAL.md on a
// contended rig, unhardened vs hardened, measuring what each attack actually
// buys the attacker and what the mitigations take back.
//
// Rig: 2 pCPUs, a 3-vCPU primary running NPB `ep` (sustained, barrier-light
// compute — a saturating victim whose finish time is pure CPU share), one
// attacking VM per cell. Columns:
//
//   victim (s)   primary ep wall time (vs the attacker-free baseline run of
//                the same rig → slowdown)
//   atk share    attacker runtime / weight-fair entitlement over the whole
//                run (ComputeFairness); > 1+eps with waiting victims = theft
//   theft (%)    FairnessProbe windowed theft as % of sampled pool capacity
//                (catches bursty theft the aggregate hides)
//   slack (ms)   vScale cells: extendability granted to the attacker beyond
//                its fair share, summed over ticker passes — the slack the
//                churn attack's inflated runnable-wait diverts from honest
//                competitors until waited_cap_ratio clamps the demand signal
//
// Attack shapes (pinned in tests/antagonist_test.cc):
//  * tick-evader: binge/sleep at accounting-window scale — the sleep windows
//    re-arm the stock idle refill (credit := +period, weight-independent), so
//    every binge is credit-backed and never weight-shared;
//  * boost-abuser: the same refill harvested at low weight, cashed in through
//    wake BOOST — a 30 ms burst every 90 ms preempts instantly and runs
//    UNDER for the whole credit-backed burst, ~2x its paid-for share;
//  * churn: near-zero consumption but rapid wake cycling whose runnable-wait
//    inflates demand past the releaser margin, stealing slack from the pool;
//  * freeze-straggler: long preempt-off critical sections delaying the vScale
//    freeze path (its own daemon, run_daemon=true).
//
// --check exits non-zero unless the adversarial story holds end to end:
// unhardened, at least two attack kinds steal past entitlement and churn
// collects slack; hardened, every attack is neutralized (no aggregate
// violation, no windowed theft beyond the oracle's floor) and churn's slack
// take collapses. CI runs exactly that (docs/ADVERSARIAL.md).

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/base/table.h"
#include "src/vscale/ticker.h"
#include "src/workloads/antagonist.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/testbed.h"

using namespace vscale;

namespace {

constexpr uint64_t kSeed = 424242;
constexpr int kEpsPct = 25;  // same eps as the fuzz fairness oracle
constexpr TimeNs kDeadline = Seconds(40);

struct CellSpec {
  AntagonistKind kind;
  Policy policy;
  int vcpus;
  int weight;          // 0 = testbed default (weight-fair for its size)
  TimeNs period;       // 0 = kind default
  int duty_pct;        // 0 = kind default
  int background_vms;  // -1 = none; churn needs a bursty releaser whose
                       // quiet-phase slack is the thing being stolen
};

const CellSpec kCells[] = {
    {AntagonistKind::kTickEvader, Policy::kBaselinePvlock, 2, 256, 0, 0, -1},
    {AntagonistKind::kBoostAbuser, Policy::kBaselinePvlock, 2, 128,
     Milliseconds(90), 33, -1},
    {AntagonistKind::kChurn, Policy::kVscalePvlock, 2, 0, Microseconds(150), 0, 1},
    {AntagonistKind::kFreezeStraggler, Policy::kVscalePvlock, 2, 0, 0, 0, -1},
};

HardeningConfig FullHardening() {
  HardeningConfig h;
  h.acct_time_based = true;
  h.boost_budget = 2;
  h.waited_cap_ratio = 2.0;
  h.plausibility_clamp = true;
  return h;
}

struct Outcome {
  double victim_s = 0.0;
  bool victim_done = false;
  double share = 0.0;      // attacker share_of_fair (whole run)
  double theft_pct = 0.0;  // windowed theft / sampled capacity
  bool violated = false;   // aggregate violation or windowed theft past floor
  double slack_ms = 0.0;   // sum over ticker passes of max(0, ext - fair)
  int64_t cycles = 0;      // attack cycles completed (activity telemetry)
};

TestbedConfig MakeRig(const CellSpec& cell, bool hardened, bool with_antagonist,
                      const Observers& obs) {
  TestbedConfig tb;
  tb.observers = obs;
  tb.policy = cell.policy;
  tb.primary_vcpus = 3;
  tb.pool_pcpus = 2;
  tb.background_vms = cell.background_vms;
  tb.seed = kSeed;
  if (with_antagonist) {
    AntagonistConfig ac;
    ac.kind = cell.kind;
    ac.vcpus = cell.vcpus;
    ac.weight = cell.weight;
    ac.period = cell.period;
    ac.duty_pct = cell.duty_pct;
    ac.run_daemon = cell.kind == AntagonistKind::kFreezeStraggler;
    tb.antagonists.push_back(ac);
  }
  if (hardened) {
    tb.hardening = FullHardening();
  }
  return tb;
}

Outcome RunCell(const CellSpec& cell, bool hardened, bool with_antagonist,
                const Observers& obs) {
  Testbed bed(MakeRig(cell, hardened, with_antagonist, obs));

  std::unique_ptr<FairnessProbe> probe;
  TimeNs slack_sum = 0;
  if (with_antagonist) {
    probe = std::make_unique<FairnessProbe>(
        bed.machine(), bed.antagonist_domain_ids(), kEpsPct);
    if (bed.ticker() != nullptr) {
      // Control-plane ground truth: extendability handed to the attacker
      // beyond its fair share is slack its wait-inflation diverted.
      const size_t atk = static_cast<size_t>(bed.antagonist_domain_ids()[0]);
      bed.ticker()->on_pass =
          [&slack_sum, atk](TimeNs, const std::vector<VmExtendability>& vms) {
            if (vms[atk].ext_ns > vms[atk].fair_ns) {
              slack_sum += vms[atk].ext_ns - vms[atk].fair_ns;
            }
          };
    }
  }

  OmpAppConfig ac = NpbProfile("ep", /*threads=*/3, kSpinCountPassive);
  ac.intervals = 3;
  OmpApp app(bed.primary(), ac, kSeed ^ 0x9e3779b97f4a7c15ull);
  app.Start();
  bed.RunUntil([&] { return app.done(); }, kDeadline);

  Outcome out;
  out.victim_done = app.done();
  out.victim_s = ToSeconds(app.done() ? app.duration() : bed.sim().Now());
  if (with_antagonist) {
    const DomainId atk = bed.antagonist_domain_ids()[0];
    const FairnessReport report = ComputeFairness(bed.machine());
    for (const DomainFairness& d : report.domains) {
      if (d.id == atk) {
        out.share = d.share_of_fair;
      }
    }
    out.violated = FairnessViolated(report, atk,
                                    static_cast<double>(kEpsPct) / 100.0,
                                    /*detail=*/nullptr);
    if (probe->sampled_capacity() > 0) {
      out.theft_pct = 100.0 * static_cast<double>(probe->max_theft()) /
                      static_cast<double>(probe->sampled_capacity());
      // Same floor as the fuzz oracle: theft beyond 0.5% of sampled capacity
      // is a violation even when the whole-run aggregate looks fair.
      out.violated =
          out.violated || probe->max_theft() > probe->sampled_capacity() / 200;
    }
    out.slack_ms = static_cast<double>(slack_sum) / 1e6;
    out.cycles = bed.antagonist(0).cycles();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchTraceScope scope(argc, argv);
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    }
  }

  std::printf("Scheduler antagonists: attack yield, unhardened vs hardened\n");
  std::printf(
      "(2 pCPUs, 3-vCPU primary running NPB ep; one attacking VM per row;\n"
      " eps = %d%%; hardened = time-based accounting + boost budget 2 +\n"
      " waited cap 2.0 + plausibility clamp — docs/ADVERSARIAL.md)\n\n",
      kEpsPct);

  TextTable table({"attack", "policy", "hardened", "victim (s)", "slowdown",
                   "atk share", "theft (%)", "slack (ms)", "verdict"});
  int unhardened_violations = 0;
  int hardened_violations = 0;
  double churn_slack[2] = {0, 0};
  for (const CellSpec& cell : kCells) {
    for (int h = 0; h < 2; ++h) {
      const bool hardened = h == 1;
      const double base =
          RunCell(cell, hardened, /*with_antagonist=*/false, scope.observers())
              .victim_s;
      const Outcome out =
          RunCell(cell, hardened, /*with_antagonist=*/true, scope.observers());
      if (!hardened && out.violated) {
        ++unhardened_violations;
      }
      if (hardened && out.violated) {
        ++hardened_violations;
      }
      if (cell.kind == AntagonistKind::kChurn) {
        churn_slack[h] = out.slack_ms;
      }
      table.AddRow({ToString(cell.kind), ToString(cell.policy),
                    hardened ? "yes" : "no",
                    TextTable::Num(out.victim_s, 2) +
                        (out.victim_done ? "" : "*"),
                    base > 0 ? TextTable::Num(out.victim_s / base, 2) : "-",
                    TextTable::Num(out.share, 3),
                    TextTable::Num(out.theft_pct, 2),
                    cell.policy == Policy::kVscalePvlock
                        ? TextTable::Num(out.slack_ms, 1)
                        : "-",
                    out.violated ? "VIOLATION" : "fair"});
    }
  }
  table.Print();
  std::printf(
      "\n* = victim unfinished at the %.0f s deadline. A VIOLATION verdict\n"
      "means the attacker held more than (1+eps) x its weight-fair share while\n"
      "victims had unmet demand (aggregate), or the windowed probe accumulated\n"
      "theft past the fuzz oracle's floor (0.5%% of capacity).\n",
      ToSeconds(kDeadline));
  std::printf(
      "unhardened violations: %d   hardened violations: %d   "
      "churn slack: %.1f -> %.1f ms\n",
      unhardened_violations, hardened_violations, churn_slack[0],
      churn_slack[1]);

  if (check) {
    bool ok = true;
    if (unhardened_violations < 2) {
      std::fprintf(stderr,
                   "CHECK FAIL: want >= 2 unhardened attack kinds past "
                   "entitlement, got %d\n",
                   unhardened_violations);
      ok = false;
    }
    if (hardened_violations != 0) {
      std::fprintf(stderr,
                   "CHECK FAIL: %d attack kind(s) still steal past entitlement "
                   "with hardening on\n",
                   hardened_violations);
      ok = false;
    }
    if (churn_slack[0] <= 0.0) {
      std::fprintf(stderr,
                   "CHECK FAIL: churn gathered no slack unhardened — the "
                   "wait-inflation attack rig is dead\n");
      ok = false;
    } else if (churn_slack[1] > churn_slack[0] / 2.0) {
      std::fprintf(stderr,
                   "CHECK FAIL: waited cap left churn %.1f ms of stolen slack "
                   "(unhardened %.1f ms)\n",
                   churn_slack[1], churn_slack[0]);
      ok = false;
    }
    std::printf("check: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  return 0;
}
