// digest_run: the double-run determinism harness (docs/CHECKING.md).
//
// Runs a named scenario — a short but representative testbed simulation — and
// prints the 64-bit FNV-1a StateDigest over everything the schedule touched:
// machine counters, guest counters, and the metrics registry. Two runs with
// the same scenario and seed must print the same digest in every build flavor
// (Release, sanitizers, VSCALE_CHECKED on or off); anything else means the DES
// replay is not bit-identical and figure regeneration cannot be trusted.
//
//   digest_run --selftest            run every scenario twice in-process and
//                                    fail on any digest mismatch
//   digest_run --selftest --golden FILE
//                                    ... and also fail unless every digest
//                                    equals the one FILE pins for this seed
//                                    (ctest runs it on tests/digests.golden:
//                                    a commit that changes a digest fails)
//   digest_run --stall-check         run the quickstart cell with stall
//                                    attribution off then on; the machine/guest
//                                    digests must match bit-for-bit (the
//                                    profiler must be a pure observer)
//   digest_run --cov-check           run every scenario with the coverage map
//                                    off then on; the machine/guest digests
//                                    must match bit-for-bit and each on-run
//                                    must cover at least one point (the map
//                                    must be a pure, non-vacuous observer)
//   digest_run <scenario> [--seed N] run once, print "scenario seed digest"
//   digest_run --list                list scenario names
//
// Scenarios mirror the repo's entry points: `quickstart` is the README example
// (baseline + vScale), `fig8` the spin-heavy bt run behind the Fig. 8 bench,
// `fig9` the cg wait-time run behind the Fig. 9 bench, `chaos` the compound
// fault scenario of docs/FAULTS.md, and `chaos-delivery` the guest-interior
// delivery fault domain with the full hardening suite (dedup + resend +
// tick rescue + reconciler) armed — faulted and self-healing runs must replay
// bit-identically too, or the fault plane itself has a determinism hole.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/base/metrics_registry.h"
#include "src/base/parse.h"
#include "src/base/time.h"
#include "src/faults/fault_plan.h"
#include "src/metrics/state_digest.h"
#include "src/obs/coverage.h"
#include "src/obs/stall_accounting.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/testbed.h"

namespace {

using namespace vscale;

// One policy/app run: builds a consolidated testbed, drives the app to
// completion, absorbs live machine/guest state, then lets the Testbed
// destructor freeze its gauges into the global registry.
void RunCell(Policy policy, const char* app_name, int64_t spin_count,
             int64_t intervals, uint64_t seed, StateDigest* digest,
             const char* fault_spec = nullptr, bool stall = false,
             bool hardened_delivery = false) {
  TestbedConfig cfg;
  cfg.policy = policy;
  cfg.primary_vcpus = 4;
  cfg.pool_pcpus = 4;  // 2 desktop VMs keep the pool consolidated
  cfg.seed = seed;
  if (hardened_delivery) {
    // The delivery hardening suite + reconciler (docs/FAULTS.md): the
    // chaos-delivery scenario must replay bit-identically with all of the
    // self-healing machinery live, or the hardening has a determinism hole.
    cfg.hardening.ipi_dedup = true;
    cfg.hardening.freeze_resend_ns = Milliseconds(5);
    cfg.hardening.tick_rescue = true;
    cfg.hardening.reconciler = true;
  }
  cfg.stall_accounting = stall;
  if (fault_spec != nullptr) {
    std::string error;
    if (!ParseFaultPlan(fault_spec, &cfg.faults, &error)) {
      std::fprintf(stderr, "digest_run: bad fault spec: %s\n", error.c_str());
      std::exit(2);
    }
  }
  Testbed bed(cfg);
  OmpAppConfig app_cfg = NpbProfile(app_name, cfg.primary_vcpus, spin_count);
  app_cfg.intervals = intervals;
  OmpApp app(bed.primary(), app_cfg, seed ^ 0x9e3779b97f4a7c15ull);
  bed.sim().RunUntil(Milliseconds(200));
  app.Start();
  // A faulted cell must outlive its fault plan: without the floor, a fast app
  // can finish before the first window opens and the plan never fires — the
  // chaos scenario would digest the fault plane without exercising it.
  TimeNs min_end = 0;
  for (const FaultEvent& ev : cfg.faults.events) {
    min_end = std::max(min_end, ev.end() + Seconds(1));
  }
  bed.RunUntil([&] { return app.done() && bed.sim().Now() >= min_end; },
               Seconds(120));
  digest->Absorb(static_cast<uint64_t>(app.done() ? 1 : 0));
  digest->Absorb(app.duration());
  digest->AbsorbMachine(bed.machine());
  digest->AbsorbGuest(bed.primary());
}

struct Scenario {
  const char* name;
  const char* what;
  void (*run)(uint64_t seed, StateDigest* digest);
};

const Scenario kScenarios[] = {
    {"quickstart", "README example: lu under baseline then vScale",
     [](uint64_t seed, StateDigest* d) {
       RunCell(Policy::kBaseline, "lu", kSpinCountDefault, 40, seed, d);
       RunCell(Policy::kVscale, "lu", kSpinCountDefault, 40, seed, d);
     }},
    {"fig8", "spin-heavy bt with OMP_WAIT_POLICY=ACTIVE under vScale",
     [](uint64_t seed, StateDigest* d) {
       RunCell(Policy::kVscale, "bt", kSpinCountActive, 30, seed, d);
     }},
    {"fig9", "cg wait time, baseline+pvlock vs vScale+pvlock",
     [](uint64_t seed, StateDigest* d) {
       RunCell(Policy::kBaselinePvlock, "cg", kSpinCountDefault, 30, seed, d);
       RunCell(Policy::kVscalePvlock, "cg", kSpinCountDefault, 30, seed, d);
     }},
    {"chaos", "lu under vScale with the compound fault plan of docs/FAULTS.md",
     [](uint64_t seed, StateDigest* d) {
       RunCell(Policy::kVscale, "lu", kSpinCountDefault, 40, seed, d,
               "chan-stale@400ms+600ms;stall@1500ms+800ms;"
               "freeze-fail@3s+400ms;latency@4s+300ms*12;steal@5s+500ms*1");
     }},
    {"chaos-delivery",
     "lu under hardened vScale with the delivery fault domain of docs/FAULTS.md",
     [](uint64_t seed, StateDigest* d) {
       RunCell(Policy::kVscale, "lu", kSpinCountDefault, 40, seed, d,
               "ipi-drop@400ms+300ms;ipi-dup@900ms+300ms*2;"
               "ipi-delay@1400ms+300ms*10;port-mask@1900ms+400ms*2",
               /*stall=*/false, /*hardened_delivery=*/true);
     }},
};

// Full scenario digest: fresh global registry, the scenario's runs, then the
// frozen end-of-run registry contents.
uint64_t DigestScenario(const Scenario& s, uint64_t seed) {
  MetricsRegistry::Global().Clear();
  StateDigest digest;
  s.run(seed, &digest);
  digest.AbsorbRegistry(MetricsRegistry::Global());
  MetricsRegistry::Global().Clear();
  return digest.value();
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

// Stall attribution must be a pure observer: a run with the StallAccountant on
// has to replay to the same machine/guest digest as a run with it off. The
// registry is deliberately NOT absorbed here — the stall-on run legitimately
// publishes extra stall.* metrics; what must not move is the simulation itself.
uint64_t DigestQuickstartSim(uint64_t seed, bool stall) {
  MetricsRegistry::Global().Clear();
  StateDigest digest;
  RunCell(Policy::kBaseline, "lu", kSpinCountDefault, 40, seed, &digest,
          nullptr, stall);
  RunCell(Policy::kVscale, "lu", kSpinCountDefault, 40, seed, &digest, nullptr,
          stall);
  MetricsRegistry::Global().Clear();
  return digest.value();
}

int StallCheck(uint64_t seed) {
  StallAccountant::Global().Reset();
  const uint64_t off = DigestQuickstartSim(seed, false);
  const uint64_t on = DigestQuickstartSim(seed, true);
  const int64_t samples = StallAccountant::Global().samples();
  const int64_t failures = StallAccountant::Global().exhaustive_failures();
  StallAccountant::Global().Reset();
  if (samples <= 0) {
    std::fprintf(stderr,
                 "digest_run: --stall-check vacuous: accountant took no "
                 "samples in the stall-on run\n");
    return 1;
  }
  if (failures != 0) {
    std::fprintf(stderr,
                 "digest_run: --stall-check: %lld exhaustiveness failure(s) — "
                 "some simulated time escaped the bucket decomposition\n",
                 static_cast<long long>(failures));
    return 1;
  }
  if (off != on) {
    std::fprintf(stderr,
                 "digest_run: stall accounting perturbed the simulation: "
                 "off=%s on=%s\n",
                 Hex(off).c_str(), Hex(on).c_str());
    return 1;
  }
  std::printf("digest_run: stall-check OK: digest %s identical with stall "
              "attribution off and on (%lld samples)\n",
              Hex(on).c_str(), static_cast<long long>(samples));
  return 0;
}

// The coverage map must be a pure observer too: every scenario — including
// chaos, whose fault plan exercises most of the catalogue — has to replay to
// the same machine/guest digest with the map off and on. Like --stall-check,
// the registry is NOT absorbed (an on-run legitimately publishes cov.*
// counters); what must not move is the simulation. The check is also
// non-vacuous: each on-run must cover at least one point, and the chaos
// on-run must cover at least one fault.* point.
int CovCheck(uint64_t seed) {
  CoverageMap::Global().Reset();
  int failures = 0;
  for (const Scenario& s : kScenarios) {
    MetricsRegistry::Global().Clear();
    Testbed::SetCoverageDefault(false);
    StateDigest off_digest;
    s.run(seed, &off_digest);
    MetricsRegistry::Global().Clear();

    Testbed::SetCoverageDefault(true);
    StateDigest on_digest;
    s.run(seed, &on_digest);
    Testbed::SetCoverageDefault(false);
    MetricsRegistry::Global().Clear();

    // The last testbed's vector survives its FinishRun; enough for vacuity.
    const CoverageVector v = CoverageMap::Global().Vector();
    const int covered = CoveredPoints(v);
    CoverageMap::Global().Reset();

    if (off_digest.value() != on_digest.value()) {
      std::fprintf(stderr,
                   "digest_run: %s: coverage map perturbed the simulation: "
                   "off=%s on=%s\n",
                   s.name, Hex(off_digest.value()).c_str(),
                   Hex(on_digest.value()).c_str());
      ++failures;
      continue;
    }
    if (covered <= 0) {
      std::fprintf(stderr,
                   "digest_run: %s: --cov-check vacuous: the on-run covered "
                   "no points\n",
                   s.name);
      ++failures;
      continue;
    }
    if (std::strcmp(s.name, "chaos") == 0) {
      bool fault_point = false;
      for (int i = static_cast<int>(CoveragePoint::kFaultChannelStale);
           i <= static_cast<int>(CoveragePoint::kFaultStealBurst); ++i) {
        if (v[static_cast<size_t>(i)] > 0) fault_point = true;
      }
      if (!fault_point) {
        std::fprintf(stderr,
                     "digest_run: chaos: --cov-check vacuous: fault plan ran "
                     "but no fault.* point covered\n");
        ++failures;
        continue;
      }
    }
    std::printf("digest_run: %s cov-check OK: digest %s identical off/on, "
                "%d point(s) covered\n",
                s.name, Hex(on_digest.value()).c_str(), covered);
  }
  if (failures != 0) {
    std::fprintf(stderr, "digest_run: cov-check FAILED (%d scenario(s))\n",
                 failures);
    return 1;
  }
  std::printf("digest_run: cov-check OK (%zu scenarios)\n",
              sizeof(kScenarios) / sizeof(kScenarios[0]));
  return 0;
}

// (scenario, seed) -> pinned digest in hex.
using GoldenDigests = std::map<std::pair<std::string, uint64_t>, std::string>;

// A golden file holds one "<scenario> <seed> <digest>" line per pinned digest —
// the single-scenario mode's output format — plus '#' comments and blank
// lines. Returns false with a message on a malformed line or unknown scenario.
bool LoadGolden(const char* path, GoldenDigests* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = std::string("cannot open ") + path;
    return false;
  }
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, seed_text, digest, extra;
    uint64_t seed = 0;
    if (!(fields >> name >> seed_text >> digest) || (fields >> extra) ||
        !ParseU64(seed_text, &seed) || digest.size() != 16 ||
        digest.find_first_not_of("0123456789abcdef") != std::string::npos) {
      *error = std::string(path) + ":" + std::to_string(line_no) +
               ": want \"<scenario> <seed> <16 hex digits>\"";
      return false;
    }
    if (!std::any_of(std::begin(kScenarios), std::end(kScenarios),
                     [&](const Scenario& s) { return name == s.name; })) {
      *error = std::string(path) + ":" + std::to_string(line_no) +
               ": unknown scenario '" + name + "'";
      return false;
    }
    (*out)[{name, seed}] = digest;
  }
  return true;
}

// Runs every scenario twice (the runs must agree) and, given a golden file,
// also requires each digest to equal the pinned one for this seed.
int SelfTest(uint64_t seed, const char* golden_path) {
  GoldenDigests golden;
  if (golden_path != nullptr) {
    std::string error;
    if (!LoadGolden(golden_path, &golden, &error)) {
      std::fprintf(stderr, "digest_run: golden: %s\n", error.c_str());
      return 2;
    }
  }
  int failures = 0;
  for (const Scenario& s : kScenarios) {
    const uint64_t first = DigestScenario(s, seed);
    const uint64_t second = DigestScenario(s, seed);
    if (first != second) {
      std::fprintf(stderr,
                   "digest_run: %s: NOT deterministic: run1=%s run2=%s\n",
                   s.name, Hex(first).c_str(), Hex(second).c_str());
      ++failures;
      continue;
    }
    std::printf("digest_run: %s seed=%llu digest=%s (two runs identical)\n",
                s.name, static_cast<unsigned long long>(seed), Hex(first).c_str());
    if (golden_path == nullptr) continue;
    const auto it = golden.find({s.name, seed});
    if (it == golden.end()) {
      std::fprintf(stderr, "digest_run: %s: %s pins no digest for seed %llu\n",
                   s.name, golden_path, static_cast<unsigned long long>(seed));
      ++failures;
    } else if (it->second != Hex(first)) {
      std::fprintf(stderr,
                   "digest_run: %s: golden mismatch: got %s, %s pins %s — the "
                   "change altered the simulation\n",
                   s.name, Hex(first).c_str(), golden_path, it->second.c_str());
      ++failures;
    }
  }
  if (failures != 0) {
    std::fprintf(stderr, "digest_run: selftest FAILED (%d scenario(s))\n",
                 failures);
    return 1;
  }
  std::printf("digest_run: selftest OK (%zu scenarios, checked=%s)\n",
              sizeof(kScenarios) / sizeof(kScenarios[0]),
#if VSCALE_CHECKED
              "on"
#else
              "off"
#endif
  );
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: digest_run --selftest [--golden FILE] [--seed N] | "
               "digest_run --stall-check [--seed N] | "
               "digest_run --cov-check [--seed N] | "
               "digest_run <scenario> [--seed N] | digest_run --list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 7;
  const char* scenario = nullptr;
  const char* golden = nullptr;
  bool selftest = false;
  bool stall_check = false;
  bool cov_check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selftest") == 0) {
      selftest = true;
    } else if (std::strcmp(argv[i], "--stall-check") == 0) {
      stall_check = true;
    } else if (std::strcmp(argv[i], "--cov-check") == 0) {
      cov_check = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      if (!ParseU64(argv[++i], &seed)) return Usage();
    } else if (std::strcmp(argv[i], "--golden") == 0 && i + 1 < argc) {
      golden = argv[++i];
    } else if (std::strcmp(argv[i], "--list") == 0) {
      for (const Scenario& s : kScenarios) {
        std::printf("%-12s %s\n", s.name, s.what);
      }
      return 0;
    } else if (argv[i][0] != '-' && scenario == nullptr) {
      scenario = argv[i];
    } else {
      return Usage();
    }
  }
  if (golden != nullptr && !selftest) {
    return Usage();  // a golden file pins the selftest's digests
  }
  if (stall_check) {
    return StallCheck(seed);
  }
  if (cov_check) {
    return CovCheck(seed);
  }
  if (selftest) {
    return SelfTest(seed, golden);
  }
  if (scenario == nullptr) {
    std::fprintf(stderr, "digest_run: need a scenario name or --selftest\n");
    return 2;
  }
  for (const Scenario& s : kScenarios) {
    if (std::strcmp(s.name, scenario) == 0) {
      std::printf("%s %llu %s\n", s.name,
                  static_cast<unsigned long long>(seed),
                  Hex(DigestScenario(s, seed)).c_str());
      return 0;
    }
  }
  std::fprintf(stderr, "digest_run: unknown scenario '%s' (try --list)\n",
               scenario);
  return 2;
}
