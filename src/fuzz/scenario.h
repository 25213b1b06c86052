// Scenario: the unit of work of the deterministic scenario fuzzer — a complete
// randomized testbed run (machine topology, consolidation level, workload mix,
// vScale/daemon/watchdog configuration and a FaultPlan) plus the sim horizon it
// must complete within.
//
// A scenario has a canonical line-oriented text form (`.scenario` files) so a
// fuzzer find survives as an artifact: the shrinker serializes the minimal
// failing scenario, tools/fuzz_run --replay re-runs it bit-identically, and
// tests/corpus/ checks past finds in as permanent regression tests. The format
// is strict — unknown keys, malformed or out-of-range values and repeated
// scalar keys are errors, never silently skipped or overridden — because a
// repro file that half-parses is worse than none.
// docs/FUZZING.md documents the grammar.

#ifndef VSCALE_SRC_FUZZ_SCENARIO_H_
#define VSCALE_SRC_FUZZ_SCENARIO_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/base/parse.h"
#include "src/base/time.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/testbed.h"

namespace vscale {

// One workload in the primary VM's mix. Either an NPB-OMP kernel run to
// completion or an open-loop web-serving window (paper's Figs. 6-10 vs 14).
struct WorkloadSpec {
  enum class Kind { kOmp, kWeb };
  Kind kind = Kind::kOmp;

  // kOmp: a named NpbProfile, its interval count and GOMP spin budget.
  std::string app = "lu";
  int64_t intervals = 10;
  int64_t spin_count = kSpinCountDefault;

  // kWeb: an httperf-style constant-rate client window against a WebServer.
  int64_t rps = 200;
  TimeNs start = 0;
  TimeNs duration = 0;
  int workers = 8;

  friend bool operator==(const WorkloadSpec& a, const WorkloadSpec& b) {
    return a.kind == b.kind && a.app == b.app && a.intervals == b.intervals &&
           a.spin_count == b.spin_count && a.rps == b.rps &&
           a.start == b.start && a.duration == b.duration &&
           a.workers == b.workers;
  }
  friend bool operator!=(const WorkloadSpec& a, const WorkloadSpec& b) {
    return !(a == b);
  }
};

struct Scenario {
  // The generation seed; doubles as TestbedConfig.seed and the workload seeds,
  // so one uint64 names the entire run.
  uint64_t seed = 1;
  // Topology, policy, background VMs, daemon/watchdog configs and fault plan.
  // stall_accounting is ignored here: the oracle battery always turns it on.
  TestbedConfig config;
  // The primary VM's workload mix; must not be empty.
  std::vector<WorkloadSpec> workloads;
  // Everything — workloads, fault windows, post-fault recovery — must be over
  // by this virtual time or the run counts as non-terminating.
  TimeNs horizon = Seconds(20);

  // Domains the testbed will instantiate (primary + desktops + antagonists).
  int Domains() const { return ResolveTopology(config).domains; }

  // VS_REQUIRE-rejects scenarios no oracle verdict could be trusted on:
  // empty workload mix, non-positive horizon, fault windows or web client
  // windows extending past the horizon — on top of TestbedConfig::Validate().
  void Validate() const;
  // Non-aborting Validate(): swallows the reports and returns whether there
  // were none, with the first message in *why (if non-null) when there were.
  bool ProbeLegal(std::string* why) const;

  // Canonical text form; Parse(ToString()) reproduces the scenario exactly
  // and ToString() output is a fixpoint (stable field order, ns-exact times).
  std::string ToString() const;
};

// One scalar `<key> <integer>` line of the grammar. ScenarioKnobs() lists
// them all in canonical order; ToString(), ParseScenario() and the generator's
// uniform knob draws walk that one table, so adding a knob is one entry in
// src/fuzz/scenario.cc plus its model code.
struct ScenarioKnob {
  // The range a parsed value must fit: 0/1, int32, int64 or uint64.
  enum class Width : uint8_t { kBool, kI32, kI64, kU64 };
  // Canonical position, which also says when ToString() omits the line:
  // kHardening lines at their OFF default (0), kReconciler lines unless
  // hardening.reconciler is on. `policy` follows kSeed, the workload and
  // antagonist lines follow kBody, `faults` follows kFaultSeed.
  enum class Section : uint8_t { kSeed, kBody, kHardening, kReconciler, kFaultSeed };
  // kGenerated: GenerateScenario draws it from its `knobs` stream;
  // kRedrawn: MutateScenario's knob mutation redraws it as well.
  enum class Draw : uint8_t { kNone, kGenerated, kRedrawn };

  const char* key;
  Width width;
  // Field access in the text's units; uint64 fields pass through the int64
  // by modular conversion.
  int64_t (*get)(const Scenario&);
  void (*set)(Scenario&, int64_t);
  Section section = Section::kBody;
  Draw draw = Draw::kNone;
  int64_t draw_lo = 0, draw_hi = 0, draw_unit = 1;  // UniformInt(lo, hi) * unit
};

std::span<const ScenarioKnob> ScenarioKnobs();

// Parses a scenario text (see docs/FUZZING.md). On failure returns false with
// a line-numbered message in *error and leaves *out untouched.
bool ParseScenario(const std::string& text, Scenario* out, std::string* error);

// Reads and parses `path`; `error` covers I/O failures too.
bool LoadScenarioFile(const std::string& path, Scenario* out,
                      std::string* error);

}  // namespace vscale

#endif  // VSCALE_SRC_FUZZ_SCENARIO_H_
