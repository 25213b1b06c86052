#include "src/fuzz/shrinker.h"

#include <algorithm>
#include <utility>

namespace vscale {

namespace {

class Shrinker {
 public:
  Shrinker(OracleVerdict verdict, int budget) : verdict_(verdict), budget_(budget) {}

  // Same-verdict acceptance: legal, within budget, and failing identically.
  // Shrink moves routinely produce illegal candidates (a halved horizon can
  // strand a fault window); the legality probe rejects those for free.
  bool Accept(const Scenario& cand) {
    if (runs_ >= budget_ || !cand.ProbeLegal(nullptr)) return false;
    ++runs_;
    if (RunOracle(cand).verdict != verdict_) return false;
    ++accepted_;
    return true;
  }

  // Applies `move` to a copy of *cur and keeps the copy if it is accepted.
  template <typename Move>
  bool Try(Scenario* cur, Move&& move) {
    Scenario cand = *cur;
    move(cand);
    if (!Accept(cand)) return false;
    *cur = std::move(cand);
    return true;
  }

  int runs() const { return runs_; }
  int accepted() const { return accepted_; }

 private:
  OracleVerdict verdict_;
  int budget_;
  int runs_ = 0;
  int accepted_ = 0;
};

}  // namespace

Scenario ShrinkScenario(const Scenario& failing, OracleVerdict verdict,
                        int max_oracle_runs, ShrinkStats* stats) {
  Shrinker sh(verdict, max_oracle_runs);
  Scenario cur = failing;
  bool progress = true;
  while (progress && sh.runs() < max_oracle_runs) {
    progress = false;

    // Drop fault events, last first (late events are least likely to matter
    // for a failure that manifested earlier).
    for (size_t i = cur.config.faults.events.size(); i-- > 0;) {
      progress |= sh.Try(&cur, [i](Scenario& c) {
        c.config.faults.events.erase(c.config.faults.events.begin() +
                                     static_cast<long>(i));
      });
    }

    // Drop antagonists, last first. Zero is legal; a fairness-violation
    // verdict keeps its load-bearing attacker automatically (dropping it
    // disarms the fairness oracle, the verdict changes, the move is rejected).
    for (size_t i = cur.config.antagonists.size(); i-- > 0;) {
      progress |= sh.Try(&cur, [i](Scenario& c) {
        c.config.antagonists.erase(c.config.antagonists.begin() +
                                   static_cast<long>(i));
      });
    }

    // Drop workloads, keeping at least one (an empty mix is illegal and the
    // liveness oracle would be vacuous).
    for (size_t i = cur.workloads.size(); i-- > 0 && cur.workloads.size() > 1;) {
      progress |= sh.Try(&cur, [i](Scenario& c) {
        c.workloads.erase(c.workloads.begin() + static_cast<long>(i));
      });
    }

    // Drop consolidation: all background VMs at once, else one fewer.
    if (cur.config.background_vms > 0) {
      progress |=
          sh.Try(&cur, [](Scenario& c) { c.config.background_vms = -1; }) ||
          sh.Try(&cur, [](Scenario& c) {
            c.config.background_vms -= 1;
            if (c.config.background_vms == 0) c.config.background_vms = -1;
          });
    }

    // Halve the horizon (floor 1 s; legality probe rejects halvings that
    // strand a fault or web window).
    if (cur.horizon > Seconds(1)) {
      progress |= sh.Try(&cur, [](Scenario& c) {
        c.horizon = std::max<TimeNs>(Seconds(1), c.horizon / 2);
      });
    }

    // Halve OMP interval counts toward the 2-interval floor.
    for (size_t i = 0; i < cur.workloads.size(); ++i) {
      const WorkloadSpec& w = cur.workloads[i];
      if (w.kind != WorkloadSpec::Kind::kOmp || w.intervals <= 2) continue;
      progress |= sh.Try(&cur, [i](Scenario& c) {
        c.workloads[i].intervals = std::max<int64_t>(2, c.workloads[i].intervals / 2);
      });
    }
  }
  if (stats != nullptr) {
    stats->oracle_runs = sh.runs();
    stats->accepted = sh.accepted();
  }
  return cur;
}

}  // namespace vscale
