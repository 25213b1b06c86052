#include "src/fuzz/oracle.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/metrics/state_digest.h"
#include "src/obs/coverage.h"
#include "src/obs/stall_accounting.h"
#include "src/workloads/antagonist.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/testbed.h"
#include "src/workloads/web_server.h"

namespace vscale {

namespace {

bool g_fuzz_canary = false;
bool g_fairness_canary = false;

// Everything one run of a scenario yields; RunOracle combines two of these.
struct RunOutcome {
  bool terminated = false;
  uint64_t digest = 0;
  CoverageVector coverage;
  uint64_t violations = 0;
  std::string first_violation;
  int64_t stall_samples = 0;
  int64_t stall_failures = 0;
  int64_t watchdog_trips = 0;
  int64_t watchdog_recoveries = 0;
  bool fairness_violated = false;
  std::string fairness_detail;
  bool notification_lost = false;
  std::string notification_detail;
  TimeNs end_time = 0;
};

// Captures invariant reports instead of aborting, so a failing scenario is a
// verdict for the fuzz loop rather than the end of the process.
class CaptureViolations {
 public:
  CaptureViolations() : start_count_(InvariantViolationCount()) {
    prev_ = SetInvariantHandler([this](const InvariantViolation& v) {
      if (first_.empty()) {
        first_ = std::string(v.expr) + " (" + v.file + ":" +
                 std::to_string(v.line) + "): " + v.message;
      }
    });
  }
  ~CaptureViolations() { SetInvariantHandler(std::move(prev_)); }

  uint64_t count() const { return InvariantViolationCount() - start_count_; }
  const std::string& first() const { return first_; }

 private:
  uint64_t start_count_;
  std::string first_;
  InvariantHandler prev_;
};

RunOutcome RunScenarioOnce(const Scenario& s, uint64_t testbed_seed) {
  s.Validate();
  RunOutcome out;
  // This run's own observers: the accountant arms the exhaustiveness oracle and
  // the map is harvested after the bed tears down. No registry is attached.
  StallAccountant stall;
  CoverageMap coverage;
  CaptureViolations captured;

  {
    TestbedConfig cfg = s.config;
    cfg.seed = testbed_seed;
    cfg.observers.stall = &stall;
    cfg.observers.coverage = &coverage;
    // The fairness canary (test-only): run the attack without its mitigations
    // while the oracle below still treats the scenario's hardening as armed,
    // so the violation MUST surface if the fairness oracle works.
    if (g_fairness_canary && !cfg.antagonists.empty()) {
      cfg.hardening = HardeningConfig{};
    }
    Testbed bed(cfg);

    // Fairness oracle (docs/ADVERSARIAL.md): armed only when the scenario has
    // antagonists AND hardening on — with mitigations off, the stock scheduler
    // is known-vulnerable and an attacker over entitlement is the expected
    // result, not a bug. Note s.config (what the scenario claims), not cfg
    // (what actually ran): that gap is exactly what the canary exploits. The
    // probe is pure observation, so arming it never perturbs the run.
    std::unique_ptr<FairnessProbe> fairness;
    if (!s.config.antagonists.empty() && s.config.hardening.AnyEnabled()) {
      fairness = std::make_unique<FairnessProbe>(
          bed.machine(), bed.antagonist_domain_ids(),
          static_cast<int>(kFairnessEps * 100.0 + 0.5));
    }

    // All workloads are created before the clock moves: OMP teams start at
    // t=0, web client windows are absolute virtual times from the scenario.
    std::vector<std::unique_ptr<OmpApp>> apps;
    std::vector<std::unique_ptr<WebServer>> servers;
    std::vector<std::unique_ptr<HttperfClient>> clients;
    TimeNs min_end = 0;
    uint64_t salt = 0;
    for (const WorkloadSpec& w : s.workloads) {
      ++salt;
      if (w.kind == WorkloadSpec::Kind::kOmp) {
        OmpAppConfig ac = NpbProfile(w.app, cfg.primary_vcpus, w.spin_count);
        ac.intervals = w.intervals;
        apps.push_back(std::make_unique<OmpApp>(
            bed.primary(), ac, testbed_seed ^ (0x9e3779b97f4a7c15ull + salt)));
        apps.back()->Start();
      } else {
        WebServerConfig wc;
        wc.workers = w.workers;
        servers.push_back(std::make_unique<WebServer>(
            bed.primary(), bed.sim(), wc,
            testbed_seed ^ (0xbf58476d1ce4e5b9ull + salt)));
        servers.back()->Start();
        clients.push_back(std::make_unique<HttperfClient>(
            *servers.back(), bed.sim(), static_cast<double>(w.rps),
            testbed_seed ^ (0x94d049bb133111ebull + salt)));
        clients.back()->Run(w.start, w.duration);
        // Let queued requests drain before the run may stop.
        min_end = std::max(min_end, w.start + w.duration + Milliseconds(500));
      }
    }
    // The liveness oracle needs post-fault recovery room: never stop while a
    // fault window is open or the watchdog/daemon might still be mid-recovery.
    for (const FaultEvent& ev : cfg.faults.events) {
      min_end = std::max(min_end, ev.end() + Seconds(2));
    }

    out.terminated = bed.RunUntil(
        [&] {
          if (bed.sim().Now() < min_end) return false;
          for (const auto& app : apps) {
            if (!app->done()) return false;
          }
          return true;
        },
        s.horizon);
    out.end_time = bed.sim().Now();

    if (bed.watchdog() != nullptr) {
      out.watchdog_trips = bed.watchdog()->trips();
      out.watchdog_recoveries = bed.watchdog()->recoveries();
    }

    // Notification-lost oracle (docs/FAULTS.md): armed only when the scenario
    // plans a delivery fault AND arms delivery hardening — the unhardened
    // kernel wedging is the documented baseline; a hardened one must have
    // reconverged by end of run. The end state is settled, not mid-flight:
    // every fault window closed >= 2 s ago (min_end above), and an in-flight
    // notification would have left its target vCPU runnable, not blocked.
    if (s.config.hardening.AnyDeliveryEnabled() &&
        s.config.faults.HasDeliveryFault()) {
      const GuestKernel& k = bed.primary();
      const uint64_t guest_mask = k.freeze_mask();
      const uint64_t hv_mask = bed.primary_domain().hv_freeze_mask();
      if (guest_mask != hv_mask) {
        out.notification_lost = true;
        out.notification_detail =
            "guest cpu_freeze_mask " + std::to_string(guest_mask) +
            " != hypervisor freeze mask " + std::to_string(hv_mask) +
            " at end of run";
      }
      for (int i = 0; i < k.n_cpus() && !out.notification_lost; ++i) {
        const GuestCpu& c = k.cpu(i);
        const Vcpu& v = bed.primary_domain().vcpu(i);
        if (c.evacuate_pending && v.state() == VcpuState::kBlocked &&
            c.freeze_resends_left == 0) {
          out.notification_lost = true;
          out.notification_detail =
              "cpu" + std::to_string(i) +
              " wedged mid-freeze: evacuate pending, hv-blocked, resend "
              "budget spent";
        } else if (!c.frozen && v.state() == VcpuState::kBlocked && !v.polling &&
                   !c.runq.empty()) {
          out.notification_lost = true;
          out.notification_detail =
              "cpu" + std::to_string(i) + " hv-blocked with " +
              std::to_string(c.runq.size()) +
              " runnable thread(s) queued (lost wakeup never rescued)";
        }
      }
    }

    // Theft beyond a sliver of pool capacity means a mitigation that claimed
    // to neutralize this attacker did not. The windowed probe already ruled
    // out work conservation (overage only counts when victims were
    // concurrently waiting), so the floor only absorbs startup transients.
    if (fairness != nullptr) {
      const TimeNs theft = fairness->max_theft();
      const TimeNs floor = fairness->sampled_capacity() / 200;
      if (theft > floor && floor > 0) {
        const FairnessReport shares = ComputeFairness(bed.machine());
        std::string share_detail;
        for (int i = 0; i < bed.n_antagonists(); ++i) {
          FairnessViolated(shares,
                           bed.antagonist_domain_ids()[static_cast<size_t>(i)],
                           kFairnessEps, &share_detail);
          if (fairness->theft(bed.antagonist_domain_ids()[static_cast<size_t>(
                  i)]) == theft) {
            break;
          }
        }
        out.fairness_violated = true;
        out.fairness_detail =
            "windowed theft " + std::to_string(theft) + " ns > floor " +
            std::to_string(floor) + " ns (0.5% of sampled capacity); " +
            share_detail;
      }
    }

    StateDigest digest;
    for (const auto& app : apps) {
      digest.Absorb(static_cast<uint64_t>(app->done() ? 1 : 0));
      digest.Absorb(app->duration());
    }
    for (const auto& server : servers) {
      digest.Absorb(server->stats().arrivals);
      digest.Absorb(server->stats().replies);
      digest.Absorb(server->stats().drops);
    }
    digest.AbsorbMachine(bed.machine());
    digest.AbsorbGuest(bed.primary());
    if (bed.daemon() != nullptr) {
      const VscaleDaemon& d = *bed.daemon();
      digest.Absorb(d.cycles());
      digest.Absorb(d.degradations());
      digest.Absorb(d.resumes());
      digest.Absorb(d.crashes());
      digest.Absorb(d.restarts());
    }
    if (bed.faults() != nullptr) {
      digest.Absorb(bed.faults()->events_started());
      digest.Absorb(bed.faults()->events_ended());
    }
    for (int i = 0; i < bed.n_antagonists(); ++i) {
      digest.Absorb(static_cast<uint64_t>(bed.antagonist(i).cycles()));
    }
    digest.Absorb(out.watchdog_trips);
    digest.Absorb(out.watchdog_recoveries);
    out.digest = digest.value();
  }  // Testbed dtor: stall FinishRun (and its stall_dominant.* points)

  out.stall_samples = stall.samples();
  out.stall_failures = stall.exhaustive_failures();
  out.coverage = coverage.Vector();
  out.violations = captured.count();
  out.first_violation = captured.first();
  return out;
}

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

}  // namespace

const char* ToString(OracleVerdict v) {
  switch (v) {
    case OracleVerdict::kPass:
      return "pass";
    case OracleVerdict::kInvariantViolation:
      return "invariant-violation";
    case OracleVerdict::kStallNonExhaustive:
      return "stall-non-exhaustive";
    case OracleVerdict::kNotificationLost:
      return "notification-lost";
    case OracleVerdict::kNonTermination:
      return "non-termination";
    case OracleVerdict::kWatchdogNoRecovery:
      return "watchdog-no-recovery";
    case OracleVerdict::kFairnessViolation:
      return "fairness-violation";
    case OracleVerdict::kDigestDivergence:
      return "digest-divergence";
  }
  return "?";
}

CoverageVector RunCoverageOnce(const Scenario& s) {
  s.Validate();
  return RunScenarioOnce(s, s.seed).coverage;
}

void SetFuzzCanary(bool enabled) { g_fuzz_canary = enabled; }
bool FuzzCanaryEnabled() { return g_fuzz_canary; }

void SetFairnessCanary(bool enabled) { g_fairness_canary = enabled; }

OracleReport RunOracle(const Scenario& s) {
  s.Validate();
  OracleReport report;

  const RunOutcome run1 = RunScenarioOnce(s, s.seed);
  report.digest1 = run1.digest;
  report.end_time = run1.end_time;
  report.coverage = run1.coverage;
  const auto fail = [&report](OracleVerdict verdict, std::string detail) {
    report.verdict = verdict;
    report.detail = std::move(detail);
    return report;
  };

  if (run1.violations > 0) {
    return fail(OracleVerdict::kInvariantViolation,
                std::to_string(run1.violations) +
                    " violation(s); first: " + run1.first_violation);
  }
  if (run1.stall_failures > 0) {
    return fail(OracleVerdict::kStallNonExhaustive,
                std::to_string(run1.stall_failures) +
                    " exhaustiveness failure(s) in " +
                    std::to_string(run1.stall_samples) + " samples");
  }
  if (run1.notification_lost) {
    return fail(OracleVerdict::kNotificationLost, run1.notification_detail);
  }
  if (!run1.terminated) {
    return fail(OracleVerdict::kNonTermination,
                "workloads incomplete at horizon " + std::to_string(s.horizon) +
                    " ns");
  }
  if (run1.watchdog_trips > run1.watchdog_recoveries) {
    return fail(OracleVerdict::kWatchdogNoRecovery,
                "watchdog trips=" + std::to_string(run1.watchdog_trips) +
                    " recoveries=" + std::to_string(run1.watchdog_recoveries) +
                    " at end of run");
  }
  if (run1.fairness_violated) {
    return fail(OracleVerdict::kFairnessViolation, run1.fairness_detail);
  }

  // Determinism gate: the identical scenario must replay bit-identically. The
  // canary fault models a seed leak on the daemon-crash path (test-only).
  uint64_t seed2 = s.seed;
  if (g_fuzz_canary) {
    for (const FaultEvent& ev : s.config.faults.events) {
      if (ev.kind == FaultKind::kDaemonCrash) {
        seed2 = s.seed ^ 1;
        break;
      }
    }
  }
  const RunOutcome run2 = RunScenarioOnce(s, seed2);
  report.digest2 = run2.digest;
  report.coverage_stable = run1.coverage == run2.coverage;
  if (run1.digest != run2.digest) {
    return fail(OracleVerdict::kDigestDivergence,
                "run1=" + Hex16(run1.digest) + " run2=" + Hex16(run2.digest));
  }
  return report;
}

}  // namespace vscale
