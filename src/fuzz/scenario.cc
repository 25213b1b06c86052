#include "src/fuzz/scenario.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "src/base/check.h"

namespace vscale {

namespace {

constexpr char kHeader[] = "vscale-scenario v1";

std::string I64(int64_t v) { return std::to_string(v); }

// One workload serialized as "workload omp app=lu intervals=12 spin=300000" /
// "workload web rps=250 start_ns=... dur_ns=... workers=8".
std::string WorkloadLine(const WorkloadSpec& w) {
  std::string out = "workload ";
  if (w.kind == WorkloadSpec::Kind::kOmp) {
    out += "omp app=" + w.app + " intervals=" + I64(w.intervals) +
           " spin=" + I64(w.spin_count);
  } else {
    out += "web rps=" + I64(w.rps) + " start_ns=" + I64(w.start) +
           " dur_ns=" + I64(w.duration) + " workers=" + I64(w.workers);
  }
  return out;
}

// Splits "key=value" tokens of a workload line.
bool SplitKv(const std::string& tok, std::string* key, std::string* value) {
  const size_t eq = tok.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 > tok.size()) return false;
  *key = tok.substr(0, eq);
  *value = tok.substr(eq + 1);
  return true;
}

// One antagonist serialized with every field explicit, so the canonical form
// never depends on which knobs happen to sit at their kind defaults:
// "antagonist tick-evader vcpus=2 weight=0 period_ns=0 duty=0 daemon=0".
std::string AntagonistLine(const AntagonistConfig& a) {
  return std::string("antagonist ") + vscale::ToString(a.kind) +
         " vcpus=" + I64(a.vcpus) + " weight=" + I64(a.weight) +
         " period_ns=" + I64(a.period) + " duty=" + I64(a.duty_pct) +
         " daemon=" + I64(a.run_daemon ? 1 : 0);
}

bool ParseAntagonistLine(const std::string& rest, AntagonistConfig* out,
                         std::string* why) {
  std::stringstream ss(rest);
  std::string kind_tok;
  if (!(ss >> kind_tok)) {
    *why = "antagonist line needs a kind (tick-evader | boost-abuser | churn | "
           "freeze-straggler)";
    return false;
  }
  AntagonistConfig a;
  if (!ParseAntagonistKind(kind_tok, &a.kind)) {
    *why = "unknown antagonist kind \"" + kind_tok + "\"";
    return false;
  }
  std::string tok;
  while (ss >> tok) {
    std::string key, value;
    int64_t num = 0;
    if (!SplitKv(tok, &key, &value) || !ParseI64(value, &num)) {
      *why = "bad antagonist token \"" + tok + "\" (want key=integer)";
      return false;
    }
    if (key == "vcpus") {
      a.vcpus = static_cast<int>(num);
    } else if (key == "weight") {
      a.weight = static_cast<int>(num);
    } else if (key == "period_ns") {
      a.period = num;
    } else if (key == "duty") {
      a.duty_pct = static_cast<int>(num);
    } else if (key == "daemon") {
      a.run_daemon = num != 0;
    } else {
      *why = "unknown antagonist token \"" + tok + "\"";
      return false;
    }
  }
  *out = a;
  return true;
}

bool ParseWorkloadLine(const std::string& rest, WorkloadSpec* out,
                       std::string* why) {
  std::stringstream ss(rest);
  std::string kind_tok;
  if (!(ss >> kind_tok)) {
    *why = "workload line needs a kind (omp | web)";
    return false;
  }
  WorkloadSpec w;
  if (kind_tok == "omp") {
    w.kind = WorkloadSpec::Kind::kOmp;
  } else if (kind_tok == "web") {
    w.kind = WorkloadSpec::Kind::kWeb;
  } else {
    *why = "unknown workload kind \"" + kind_tok + "\"";
    return false;
  }
  std::string tok;
  while (ss >> tok) {
    std::string key, value;
    if (!SplitKv(tok, &key, &value)) {
      *why = "bad workload token \"" + tok + "\" (want key=value)";
      return false;
    }
    int64_t num = 0;
    const bool numeric = ParseI64(value, &num);
    const bool omp = w.kind == WorkloadSpec::Kind::kOmp;
    if (omp && key == "app") {
      w.app = value;
    } else if (omp && key == "intervals" && numeric) {
      w.intervals = num;
    } else if (omp && key == "spin" && numeric) {
      w.spin_count = num;
    } else if (!omp && key == "rps" && numeric) {
      w.rps = num;
    } else if (!omp && key == "start_ns" && numeric) {
      w.start = num;
    } else if (!omp && key == "dur_ns" && numeric) {
      w.duration = num;
    } else if (!omp && key == "workers" && numeric) {
      w.workers = static_cast<int>(num);
    } else {
      *why = "unknown or malformed workload token \"" + tok + "\"";
      return false;
    }
  }
  *out = w;
  return true;
}

// Short stable policy tokens for scenario files: "baseline",
// "baseline-pvlock", "vscale", "vscale-pvlock" (the display ToString(Policy)
// forms contain '/' and '+', hostile to grep and filenames).
const char* PolicyToken(Policy p) {
  switch (p) {
    case Policy::kBaseline:
      return "baseline";
    case Policy::kBaselinePvlock:
      return "baseline-pvlock";
    case Policy::kVscale:
      return "vscale";
    case Policy::kVscalePvlock:
      return "vscale-pvlock";
  }
  return "?";
}

bool ParsePolicyToken(const std::string& token, Policy* out) {
  static constexpr Policy kAll[] = {Policy::kBaseline, Policy::kBaselinePvlock,
                                    Policy::kVscale, Policy::kVscalePvlock};
  for (Policy p : kAll) {
    if (token == PolicyToken(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

using Width = ScenarioKnob::Width;
using Section = ScenarioKnob::Section;
using enum ScenarioKnob::Section;
using enum ScenarioKnob::Draw;

template <typename T>
constexpr Width WidthOf() {
  static_assert(std::is_integral_v<T>, "knob fields are integers");
  return std::is_same_v<T, bool>       ? Width::kBool
         : std::is_same_v<T, int>      ? Width::kI32
         : std::is_same_v<T, uint64_t> ? Width::kU64
                                       : Width::kI64;
}

// Width, getter and setter of an integer Scenario field.
#define VS_FIELD(field)                                                \
  WidthOf<decltype(std::declval<Scenario&>().field)>(),                \
      [](const Scenario& s) { return static_cast<int64_t>(s.field); }, \
      [](Scenario& s, int64_t v) { s.field = static_cast<decltype(s.field)>(v); }

constexpr int64_t kMs = Milliseconds(1);

// Every scalar line of the grammar, in canonical order. Reordering entries
// changes the canonical text and the generator's draw order; fuzz_test pins
// both.
constexpr ScenarioKnob kKnobs[] = {
    {"seed", VS_FIELD(seed), kSeed},
    {"pcpus", VS_FIELD(config.pool_pcpus)},
    {"vcpus", VS_FIELD(config.primary_vcpus)},
    {"background_vms", VS_FIELD(config.background_vms)},
    {"crunch_ns", VS_FIELD(config.crunch_mean), kBody, kGenerated, 2000, 6000, kMs},
    {"quiet_ns", VS_FIELD(config.quiet_mean), kBody, kGenerated, 500, 2000, kMs},
    {"horizon_ns", VS_FIELD(horizon)},
    {"daemon.poll_ns", VS_FIELD(config.daemon.poll_period), kBody, kRedrawn, 5, 20, kMs},
    {"daemon.shrink_confirmations", VS_FIELD(config.daemon.shrink_confirmations), kBody, kRedrawn, 2, 6},
    {"daemon.grow_confirmations", VS_FIELD(config.daemon.grow_confirmations), kBody, kRedrawn, 1, 3},
    {"daemon.stale_reads_threshold", VS_FIELD(config.daemon.stale_reads_threshold), kBody, kRedrawn, 4, 12},
    {"daemon.unhealthy_cycles", VS_FIELD(config.daemon.unhealthy_cycles), kBody, kRedrawn, 1, 3},
    {"daemon.resume_confirmations", VS_FIELD(config.daemon.resume_confirmations), kBody, kRedrawn, 1, 4},
    {"daemon.safe_vcpu_floor", VS_FIELD(config.daemon.safe_vcpu_floor), kBody, kRedrawn, 0, 2},
    {"watchdog.check_ns", VS_FIELD(config.watchdog.check_period), kBody, kRedrawn, 5, 20, kMs},
    // The watchdog deadline must clear the daemon's worst healthy cycle: the
    // lower bound stays above (poll <= 20ms) * retries with margin.
    {"watchdog.missed_cycles", VS_FIELD(config.watchdog.missed_cycles), kBody, kRedrawn, 6, 16},
    // Never drawn: generated scenarios keep 0, inheriting the daemon floor.
    {"watchdog.safe_vcpu_floor", VS_FIELD(config.watchdog.safe_vcpu_floor)},
    {"hardening.acct_time_based", VS_FIELD(config.hardening.acct_time_based), kHardening},
    {"hardening.boost_budget", VS_FIELD(config.hardening.boost_budget), kHardening},
    // Integer percent (ratio 2.0 -> 200): the grammar is integer-only and the
    // parse quantizes to the same grid, keeping ToString() a fixpoint.
    {"hardening.waited_cap_pct", Width::kI32,
     [](const Scenario& s) { return static_cast<int64_t>(s.config.hardening.waited_cap_ratio * 100.0 + 0.5); },
     [](Scenario& s, int64_t pct) { s.config.hardening.waited_cap_ratio = pct / 100.0; }, kHardening},
    {"hardening.plausibility_clamp", VS_FIELD(config.hardening.plausibility_clamp), kHardening},
    {"hardening.ipi_dedup", VS_FIELD(config.hardening.ipi_dedup), kHardening},
    {"hardening.freeze_resend_ns", VS_FIELD(config.hardening.freeze_resend_ns), kHardening},
    {"hardening.tick_rescue", VS_FIELD(config.hardening.tick_rescue), kHardening},
    {"hardening.reconciler", VS_FIELD(config.hardening.reconciler), kHardening},
    {"reconciler.check_ns", VS_FIELD(config.reconciler.check_period), kReconciler},
    {"reconciler.grace_ns", VS_FIELD(config.reconciler.grace), kReconciler},
    {"fault_seed", VS_FIELD(config.faults.seed), kFaultSeed},
};

#undef VS_FIELD

// Hardening lines appear only when a flag leaves its OFF default, so every
// pre-antagonist corpus file stays byte-for-byte canonical.
bool Present(const ScenarioKnob& k, const Scenario& s) {
  if (k.section == kHardening) return k.get(s) != 0;
  return k.section != kReconciler || s.config.hardening.reconciler;
}

std::string FormatKnob(const ScenarioKnob& k, const Scenario& s) {
  const int64_t v = k.get(s);
  return k.width == Width::kU64 ? std::to_string(static_cast<uint64_t>(v))
                                : std::to_string(v);
}

// Parses a knob's text value into the int64 carrier, rejecting anything that
// is not a base-10 integer or does not fit the knob's width.
bool ParseKnobValue(const ScenarioKnob& k, const std::string& value,
                    int64_t* out, std::string* why) {
  const bool u64 = k.width == Width::kU64;
  uint64_t u = 0;
  if (u64 ? !ParseU64(value, &u) : !ParseI64(value, out)) {
    *why = (u64 ? "bad uint64 for " : "bad integer value for ") +
           std::string(k.key) + ": \"" + value + "\"";
    return false;
  }
  if (u64) *out = static_cast<int64_t>(u);
  // kI64 and kU64 span the whole carrier; the narrower widths are checked.
  const int64_t hi = k.width == Width::kBool  ? 1
                     : k.width == Width::kI32 ? std::numeric_limits<int32_t>::max()
                                              : std::numeric_limits<int64_t>::max();
  const int64_t lo = k.width == Width::kBool ? 0 : -hi - 1;
  if (*out < lo || *out > hi) {
    *why = std::string(k.key) + " value " + value + " outside [" +
           std::to_string(lo) + ", " + std::to_string(hi) + "]";
    return false;
  }
  return true;
}

}  // namespace

std::span<const ScenarioKnob> ScenarioKnobs() { return kKnobs; }

void Scenario::Validate() const {
  config.Validate();
  VS_REQUIRE(config.pool_pcpus >= 1,
             "Scenario pool_pcpus must be explicit and >= 1 (got %d); the "
             "fuzzer never relies on testbed auto-sizing",
             config.pool_pcpus);
  VS_REQUIRE(!workloads.empty(), "Scenario workload mix must not be empty");
  VS_REQUIRE(horizon > 0, "Scenario horizon must be positive (got %lld ns)",
             static_cast<long long>(horizon));
  for (const WorkloadSpec& w : workloads) {
    if (w.kind == WorkloadSpec::Kind::kOmp) {
      VS_REQUIRE(IsNpbProfileName(w.app),
                 "Scenario omp workload names unknown NPB app \"%s\"",
                 w.app.c_str());
      VS_REQUIRE(w.intervals >= 1,
                 "Scenario omp workload %s needs intervals >= 1 (got %lld)",
                 w.app.c_str(), static_cast<long long>(w.intervals));
      VS_REQUIRE(w.spin_count >= 0,
                 "Scenario omp workload %s needs spin >= 0 (got %lld)",
                 w.app.c_str(), static_cast<long long>(w.spin_count));
    } else {
      VS_REQUIRE(w.rps >= 1 && w.duration > 0 && w.start >= 0 && w.workers >= 1,
                 "Scenario web workload needs rps/duration/workers positive "
                 "and start >= 0 (got rps=%lld start=%lld dur=%lld workers=%d)",
                 static_cast<long long>(w.rps),
                 static_cast<long long>(w.start),
                 static_cast<long long>(w.duration), w.workers);
      VS_REQUIRE(w.start + w.duration < horizon,
                 "Scenario web window ends at %lld ns, past the %lld ns horizon",
                 static_cast<long long>(w.start + w.duration),
                 static_cast<long long>(horizon));
    }
  }
  for (const FaultEvent& ev : config.faults.events) {
    VS_REQUIRE(ev.end() < horizon,
               "Scenario fault %s ends at %lld ns, past the %lld ns horizon — "
               "the liveness oracle needs post-fault recovery room",
               vscale::ToString(ev.kind), static_cast<long long>(ev.end()),
               static_cast<long long>(horizon));
  }
}

bool Scenario::ProbeLegal(std::string* why) const {
  ViolationCapture capture;
  Validate();
  const std::vector<InvariantViolation>& reports = capture.reports();
  if (why != nullptr) *why = reports.empty() ? "" : reports.front().message;
  return reports.empty();
}

std::string Scenario::ToString() const {
  std::string out = std::string(kHeader) + '\n';
  // Appends the table's lines through the end of section `last`.
  size_t next = 0;
  const auto knobs_through = [&](Section last) {
    for (; next < std::size(kKnobs) && kKnobs[next].section <= last; ++next) {
      const ScenarioKnob& k = kKnobs[next];
      if (Present(k, *this)) {
        out += std::string(k.key) + ' ' + FormatKnob(k, *this) + '\n';
      }
    }
  };
  knobs_through(kSeed);
  out += "policy " + std::string(PolicyToken(config.policy)) + '\n';
  knobs_through(kBody);
  for (const WorkloadSpec& w : workloads) {
    out += WorkloadLine(w) + '\n';
  }
  for (const AntagonistConfig& a : config.antagonists) {
    out += AntagonistLine(a) + '\n';
  }
  knobs_through(kFaultSeed);
  if (!config.faults.empty()) {
    out += "faults " + config.faults.ToString() + '\n';
  }
  return out;
}

bool ParseScenario(const std::string& text, Scenario* out, std::string* error) {
  Scenario s;
  s.workloads.clear();
  std::stringstream ss(text);
  std::string line;
  int lineno = 0;
  bool saw_header = false;
  // The line each knob was set on, 0 = not yet: a scalar key may appear once.
  int knob_line[std::size(kKnobs)] = {};
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(lineno) + ": " + why;
    }
    return false;
  };
  while (std::getline(ss, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    if (!saw_header) {
      if (line != kHeader) {
        return fail("expected header \"" + std::string(kHeader) + "\", got \"" +
                    line + "\"");
      }
      saw_header = true;
      continue;
    }
    const size_t sp = line.find(' ', first);
    if (sp == std::string::npos || sp + 1 >= line.size()) {
      return fail("expected \"<key> <value>\", got \"" + line + "\"");
    }
    const std::string key = line.substr(first, sp - first);
    const std::string value = line.substr(sp + 1);
    const auto knob =
        std::find_if(std::begin(kKnobs), std::end(kKnobs),
                     [&](const ScenarioKnob& k) { return key == k.key; });
    if (knob != std::end(kKnobs)) {
      int& set_on = knob_line[knob - std::begin(kKnobs)];
      if (set_on != 0) {
        return fail("duplicate key \"" + key + "\" (first set on line " +
                    std::to_string(set_on) + ")");
      }
      set_on = lineno;
      int64_t v = 0;
      std::string why;
      if (!ParseKnobValue(*knob, value, &v, &why)) return fail(why);
      knob->set(s, v);
    } else if (key == "policy") {
      if (!ParsePolicyToken(value, &s.config.policy)) {
        return fail("unknown policy \"" + value + "\"");
      }
    } else if (key == "workload") {
      WorkloadSpec w;
      std::string why;
      if (!ParseWorkloadLine(value, &w, &why)) return fail(why);
      s.workloads.push_back(std::move(w));
    } else if (key == "antagonist") {
      AntagonistConfig a;
      std::string why;
      if (!ParseAntagonistLine(value, &a, &why)) return fail(why);
      s.config.antagonists.push_back(a);
    } else if (key == "faults") {
      std::string why;
      if (!FaultPlan::Parse(value, &s.config.faults, &why)) {
        return fail("bad fault plan: " + why);
      }
    } else {
      return fail("unknown key \"" + key + "\"");
    }
  }
  if (!saw_header) {
    if (error != nullptr) *error = "empty input: missing scenario header";
    return false;
  }
  // The testbed seed always mirrors the scenario seed.
  s.config.seed = s.seed;
  *out = std::move(s);
  return true;
}

bool LoadScenarioFile(const std::string& path, Scenario* out,
                      std::string* error) {
  std::ifstream f(path);
  if (!f) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  if (!ParseScenario(buf.str(), out, error)) {
    if (error != nullptr) *error = path + ": " + *error;
    return false;
  }
  return true;
}

}  // namespace vscale
