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
//   digest_run --observers-check     run every scenario with nothing attached,
//                                    then with all four observers attached
//                                    (tracer, stall accountant, coverage map,
//                                    metrics registry); the machine/guest
//                                    digests must match bit-for-bit and every
//                                    observer must have observed something (the
//                                    observers must be pure and non-vacuous)
//   digest_run --stall-check         the same gate with only the stall
//                                    accountant attached
//   digest_run --cov-check           the same gate with only the coverage map
//                                    attached
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
#include "src/base/observers.h"
#include "src/base/parse.h"
#include "src/base/time.h"
#include "src/base/trace.h"
#include "src/faults/fault_plan.h"
#include "src/metrics/state_digest.h"
#include "src/obs/coverage.h"
#include "src/obs/stall_accounting.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/testbed.h"

namespace {

using namespace vscale;

// One policy/app run observed through `obs`: builds a consolidated testbed,
// drives the app to completion, absorbs live machine/guest state, then lets
// the Testbed destructor publish its counters into obs.metrics.
void RunCell(const Observers& obs, Policy policy, const char* app_name,
             int64_t spin_count, int64_t intervals, uint64_t seed,
             StateDigest* digest, const char* fault_spec = nullptr,
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
  cfg.observers = obs;
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
  void (*run)(uint64_t seed, const Observers& obs, StateDigest* digest);
};

const Scenario kScenarios[] = {
    {"quickstart", "README example: lu under baseline then vScale",
     [](uint64_t seed, const Observers& o, StateDigest* d) {
       RunCell(o, Policy::kBaseline, "lu", kSpinCountDefault, 40, seed, d);
       RunCell(o, Policy::kVscale, "lu", kSpinCountDefault, 40, seed, d);
     }},
    {"fig8", "spin-heavy bt with OMP_WAIT_POLICY=ACTIVE under vScale",
     [](uint64_t seed, const Observers& o, StateDigest* d) {
       RunCell(o, Policy::kVscale, "bt", kSpinCountActive, 30, seed, d);
     }},
    {"fig9", "cg wait time, baseline+pvlock vs vScale+pvlock",
     [](uint64_t seed, const Observers& o, StateDigest* d) {
       RunCell(o, Policy::kBaselinePvlock, "cg", kSpinCountDefault, 30, seed, d);
       RunCell(o, Policy::kVscalePvlock, "cg", kSpinCountDefault, 30, seed, d);
     }},
    {"chaos", "lu under vScale with the compound fault plan of docs/FAULTS.md",
     [](uint64_t seed, const Observers& o, StateDigest* d) {
       RunCell(o, Policy::kVscale, "lu", kSpinCountDefault, 40, seed, d,
               "chan-stale@400ms+600ms;stall@1500ms+800ms;"
               "freeze-fail@3s+400ms;latency@4s+300ms*12;steal@5s+500ms*1");
     }},
    {"chaos-delivery",
     "lu under hardened vScale with the delivery fault domain of docs/FAULTS.md",
     [](uint64_t seed, const Observers& o, StateDigest* d) {
       RunCell(o, Policy::kVscale, "lu", kSpinCountDefault, 40, seed, d,
               "ipi-drop@400ms+300ms;ipi-dup@900ms+300ms*2;"
               "ipi-delay@1400ms+300ms*10;port-mask@1900ms+400ms*2",
               /*hardened_delivery=*/true);
     }},
};

// Full scenario digest: the scenario's runs publish into a fresh registry,
// whose end-of-run contents fold in after the machine/guest state.
uint64_t DigestScenario(const Scenario& s, uint64_t seed) {
  MetricsRegistry metrics;
  Observers obs;
  obs.metrics = &metrics;
  StateDigest digest;
  s.run(seed, obs, &digest);
  digest.AbsorbRegistry(metrics);
  return digest.value();
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

// Which sinks a purity check attaches to the observed run. --observers-check
// attaches all four; --stall-check and --cov-check attach one each, so a run
// whose other observer pointers are null is gated too (the accountant emits
// into its run's tracer and coverage map only when those are attached).
struct CheckSinks {
  const char* name;
  bool tracer, stall, coverage, metrics;
};
constexpr CheckSinks kObserversCheck{"observers-check", true, true, true, true};
constexpr CheckSinks kStallCheck{"stall-check", false, true, false, false};
constexpr CheckSinks kCovCheck{"cov-check", false, false, true, false};

// Every attached observer must be pure and non-vacuous. Each scenario replays
// twice: with nothing attached, then with the check's sinks attached. The
// machine/guest digests must match bit-for-bit. The registry is deliberately
// NOT absorbed: the observed run legitimately publishes extra stall.* and
// cov.* counters; what must not move is the simulation. Non-vacuous: the
// accountant sampled with zero exhaustiveness failures, the map covered at
// least one point (the chaos run a fault.* point), and the tracer recorded
// events when tracing is compiled in.
int ObserversCheck(uint64_t seed, const CheckSinks& sinks) {
  int failures = 0;
  const auto fail = [&](const char* scenario, const std::string& why) {
    std::fprintf(stderr, "digest_run: %s: --%s: %s\n", scenario, sinks.name,
                 why.c_str());
    ++failures;
  };
  for (const Scenario& s : kScenarios) {
    StateDigest off_digest;
    s.run(seed, Observers{}, &off_digest);

    Tracer tracer;
    StallAccountant stall;
    CoverageMap coverage;
    MetricsRegistry metrics;
    const Observers obs{sinks.tracer ? &tracer : nullptr,
                        sinks.stall ? &stall : nullptr,
                        sinks.coverage ? &coverage : nullptr,
                        sinks.metrics ? &metrics : nullptr};
    StateDigest on_digest;
    s.run(seed, obs, &on_digest);

    if (off_digest.value() != on_digest.value()) {
      fail(s.name, "the observers perturbed the simulation: unobserved=" +
                       Hex(off_digest.value()) + " observed=" +
                       Hex(on_digest.value()));
      continue;
    }
    std::string observed;
    if (sinks.stall) {
      if (stall.samples() <= 0) {
        fail(s.name, "vacuous: the stall accountant took no samples");
        continue;
      }
      if (stall.exhaustive_failures() != 0) {
        fail(s.name, std::to_string(stall.exhaustive_failures()) +
                         " exhaustiveness failure(s): some simulated time "
                         "escaped the bucket decomposition");
        continue;
      }
      observed += std::to_string(stall.samples()) + " stall samples";
    }
    if (sinks.coverage) {
      // The last testbed's vector survives its teardown; enough for vacuity.
      const CoverageVector v = coverage.Vector();
      const int covered = CoveredPoints(v);
      if (covered <= 0) {
        fail(s.name, "vacuous: the coverage map covered no points");
        continue;
      }
      if (std::strcmp(s.name, "chaos") == 0) {
        bool fault_point = false;
        for (int i = static_cast<int>(CoveragePoint::kFaultChannelStale);
             i <= static_cast<int>(CoveragePoint::kFaultStealBurst); ++i) {
          if (v[static_cast<size_t>(i)] > 0) fault_point = true;
        }
        if (!fault_point) {
          fail(s.name,
               "vacuous: the fault plan ran but no fault.* point was covered");
          continue;
        }
      }
      observed += (observed.empty() ? "" : ", ") + std::to_string(covered) +
                  " point(s) covered";
    }
    if (sinks.tracer) {
      if (tracer.recorded() == 0) {
        fail(s.name, "vacuous: the tracer recorded no events");
        continue;
      }
      observed += (observed.empty() ? "" : ", ") +
                  std::to_string(tracer.recorded()) + " events traced";
    }
    std::printf("digest_run: %s %s OK: digest %s identical "
                "unobserved/observed (%s)\n",
                s.name, sinks.name, Hex(on_digest.value()).c_str(),
                observed.c_str());
  }
  if (failures != 0) {
    std::fprintf(stderr, "digest_run: %s FAILED (%d scenario(s))\n",
                 sinks.name, failures);
    return 1;
  }
  std::printf("digest_run: %s OK (%zu scenarios)\n", sinks.name,
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
               "digest_run --observers-check|--stall-check|--cov-check "
               "[--seed N] | "
               "digest_run <scenario> [--seed N] | digest_run --list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 7;
  const char* scenario = nullptr;
  const char* golden = nullptr;
  bool selftest = false;
  const CheckSinks* check = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selftest") == 0) {
      selftest = true;
    } else if (std::strcmp(argv[i], "--observers-check") == 0) {
      check = &kObserversCheck;
    } else if (std::strcmp(argv[i], "--stall-check") == 0) {
      check = &kStallCheck;
    } else if (std::strcmp(argv[i], "--cov-check") == 0) {
      check = &kCovCheck;
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
  if (check != nullptr) {
    return ObserversCheck(seed, *check);
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
