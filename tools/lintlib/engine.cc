#include "tools/lintlib/engine.h"

#include <algorithm>
#include <set>

#include "tools/lintlib/rules.h"

namespace vslint {

namespace {

bool InNoAllowZone(const std::string& rel) {
  return rel.rfind("src/faults/", 0) == 0 || rel.rfind("src/fuzz/", 0) == 0;
}

}  // namespace

const std::vector<RuleDef>& AllRules() {
  static const std::vector<RuleDef> kRules = {
      // determinism (line-pattern rules)
      {"unordered-container", "determinism",
       "no hashed containers: iteration order is implementation-defined and "
       "perturbs replays",
       rules::UnorderedContainer},
      {"raw-rand", "determinism",
       "all randomness flows through the seeded vscale::Rng forks",
       rules::RawRand},
      {"wall-clock", "determinism",
       "host time never leaks into virtual time; use Simulator::Now()",
       rules::WallClock},
      {"pointer-key", "determinism",
       "no std::map/std::set keyed by a pointer: allocation-address order "
       "varies per run",
       rules::PointerKey},
      {"float-accum", "determinism",
       "credit and *_ns bookkeeping stays in TimeNs (int64); float "
       "accumulation is order-sensitive",
       rules::FloatAccum},
      {"faults-allow-escape", "determinism",
       "src/faults/ and src/fuzz/ carry no lint escapes at all", nullptr},
      // event-lifecycle
      {"event-owner", "event-lifecycle",
       "a stored EventId member must have a Cancel() owner somewhere in the "
       "project",
       rules::EventOwner},
      {"timer-owner", "event-lifecycle",
       "a stored TimerId member must have a DisarmTimer() owner somewhere in "
       "the project",
       rules::TimerOwner},
      {"event-freeze-path", "event-lifecycle",
       "freeze-path layers (src/guest/, src/vscale/) never persist raw "
       "EventIds; own timers via PeriodicTask",
       rules::EventFreezePath},
      // stall-attribution
      {"stall-hook", "stall-attribution",
       "every run-state mutation in machine.cc / kernel_sched.cc sits in a "
       "function carrying a VS_OBSERVE(..., stall, ...) attribution",
       rules::StallHook},
      // observability
      {"metric-docs", "observability",
       "every metric name registered in src/ appears in the docs",
       rules::MetricDocs},
      {"trace-docs", "observability",
       "every trace event name emitted in src/ appears in the docs",
       rules::TraceDocs},
      {"trace-pairing", "observability",
       "VSCALE_TRACE_BEGIN/END slice names balance within each file",
       rules::TracePairing},
      {"cov-docs", "observability",
       "every coverage-point name in the kCoverPointNames catalogue table "
       "appears in the docs",
       rules::CovDocs},
      {"observer-global", "observability",
       "no process-wide observer in src/: no static Tracer, StallAccountant, "
       "CoverageMap or MetricsRegistry (or pointer to one, or static function "
       "returning one)",
       rules::ObserverGlobal},
      // validate
      {"validate-before-use", "validate",
       "a constructor or Run* function taking a Validate()-bearing config "
       "calls Validate() before using it",
       rules::ValidateBeforeUse},
      // meta (engine passes)
      {"allow-needs-reason", "meta",
       "every vslint: allow(rule, reason) marker carries a non-empty reason",
       nullptr},
      {"stale-suppression", "meta",
       "an allow marker that suppresses no live finding is removed", nullptr},
  };
  return kRules;
}

std::vector<Finding> RunLint(const Project& project, const LintOptions& opts) {
  const auto family_active = [&](const char* fam) {
    if (opts.families.empty()) return true;
    return std::find(opts.families.begin(), opts.families.end(),
                     std::string(fam)) != opts.families.end();
  };

  std::set<std::string> active_rules;
  std::vector<Finding> findings;
  for (const RuleDef& r : AllRules()) {
    if (!family_active(r.family)) continue;
    active_rules.insert(r.name);
    if (r.fn != nullptr) r.fn(project, &findings);
  }

  // Suppression pass. faults-allow-escape findings are never suppressable:
  // the marker itself is the violation.
  std::vector<Finding> kept;
  for (Finding& f : findings) {
    const ParsedFile* pf = nullptr;
    for (const ParsedFile& cand : project.files) {
      if (cand.src.rel == f.rel) {
        pf = &cand;
        break;
      }
    }
    if (pf != nullptr && f.rule != "faults-allow-escape") {
      const Allow* a = pf->src.FindAllow(f.line, f.rule);
      if (a != nullptr) {
        a->used = true;
        continue;
      }
    }
    kept.push_back(std::move(f));
  }

  // Marker hygiene passes.
  for (const ParsedFile& pf : project.files) {
    const bool no_allow_zone = InNoAllowZone(pf.src.rel);
    for (const Allow& a : pf.src.allows) {
      if (no_allow_zone && family_active("determinism")) {
        kept.push_back({pf.src.rel, a.line, "faults-allow-escape",
                        "lint escapes are banned in src/faults and src/fuzz: "
                        "injected chaos and generated scenarios must replay "
                        "bit-identically, randomness only via src/base/rng.h"});
      }
      if (!family_active("meta")) continue;
      if (a.reason.empty()) {
        kept.push_back({pf.src.rel, a.line, "allow-needs-reason",
                        "suppression of '" + a.rule +
                            "' has no reason; write vslint: allow(" + a.rule +
                            ", <why this use is correct>)"});
      }
      if (opts.stale_check && !a.used) {
        const bool known = active_rules.count(a.rule) != 0;
        const bool inactive_known =
            !known && std::any_of(AllRules().begin(), AllRules().end(),
                                  [&](const RuleDef& r) {
                                    return a.rule == r.name;
                                  });
        if (inactive_known) continue;  // rule exists but was not run
        kept.push_back({pf.src.rel, a.line, "stale-suppression",
                        known ? "allow(" + a.rule +
                                    ") suppresses no live finding; remove the "
                                    "marker"
                              : "allow(" + a.rule +
                                    ") names no known rule; remove or fix the "
                                    "marker"});
      }
    }
  }

  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    if (a.rel != b.rel) return a.rel < b.rel;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return kept;
}

}  // namespace vslint
