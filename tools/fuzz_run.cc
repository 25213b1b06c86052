// fuzz_run: driver for the deterministic scenario fuzzer (docs/FUZZING.md).
//
//   fuzz_run --smoke [--seed S] [--count N] [--out DIR]
//       Sweep N seed-derived scenarios (S, S+1, ...) through the oracle
//       battery. Any find is shrunk, serialized to DIR (default ".") and the
//       run exits 1 — the PR-CI smoke gate and, with a large --count, the
//       nightly soak.
//   fuzz_run --canary [--seed S] [--count N] [--out DIR]
//       Enable the planted test-only canary bug, sweep until the fuzzer finds
//       it, shrink, and verify the minimized repro (a) still fails identically
//       when replayed from its serialized .scenario file and (b) shrank to
//       <= 2 domains and <= 3 fault-plan entries. Exits 0 only if the whole
//       find -> shrink -> serialize -> replay pipeline worked; this is the
//       fuzzer's own end-to-end test.
//   fuzz_run --gen <seed>
//       Print the scenario a seed generates (canonical .scenario text).
//   fuzz_run --replay <file>...
//       Parse, validate and run each .scenario file through the oracle; exits
//       nonzero on the first failing verdict. Prints each run's coverage
//       summary and fails if the coverage vector is empty or not bit-stable
//       across the oracle's double run. Used both for triaging finds and as
//       the ctest corpus regression gate (tests/corpus/).
//   fuzz_run --mutate <file> [--seed S] [--count N] [--out DIR]
//       Corpus-mutation sweep: N single-dimension mutants of a checked-in
//       .scenario, each through the oracle battery; finds shrink like --smoke.
//   fuzz_run --cov-check [--seed S] [--count N]
//       The guided-generation gate (docs/FUZZING.md): run the same seed range
//       blind and frontier-guided at equal run budget; guided must cover
//       strictly more catalogue points.
//
// --smoke accepts --frontier-in FILE (switches generation to the
// frontier-guided mode, steering toward points the file leaves uncovered) and
// --frontier-out FILE (writes the sweep's cumulative coverage, mergeable by
// tools/cov_report). Every sweep ends with a one-line cumulative coverage
// summary.
//
// Everything is virtual-time and seed-driven: no wall clock anywhere, so a
// soak budget is a scenario count, not minutes, and every line this tool
// prints reproduces bit-identically from the command line that produced it.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/base/parse.h"
#include "src/fuzz/oracle.h"
#include "src/fuzz/scenario.h"
#include "src/fuzz/scenario_gen.h"
#include "src/fuzz/shrinker.h"
#include "src/obs/coverage.h"

namespace {

using namespace vscale;

// Loads a .scenario file and probes it for legality without aborting;
// reports either failure on stderr.
bool LoadLegalScenario(const std::string& path, Scenario* s) {
  std::string error;
  if (!LoadScenarioFile(path, s, &error)) {
    std::fprintf(stderr, "fuzz_run: %s\n", error.c_str());
    return false;
  }
  if (!s->ProbeLegal(&error)) {
    std::fprintf(stderr, "fuzz_run: %s: illegal scenario: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

bool WriteScenarioFile(const Scenario& s, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << s.ToString();
  return f.good();
}

// Shrinks a find and writes the minimized repro next to the full one.
// Returns the minimized scenario.
Scenario ShrinkAndReport(const Scenario& found, const OracleReport& report,
                         const std::string& out_dir) {
  std::printf("fuzz_run: seed %llu FAILED: %s (%s)\n",
              static_cast<unsigned long long>(found.seed),
              ToString(report.verdict), report.detail.c_str());
  ShrinkStats stats;
  const Scenario minimal =
      ShrinkScenario(found, report.verdict, /*max_oracle_runs=*/200, &stats);
  std::printf(
      "fuzz_run: shrunk to %d domain(s), %zu workload(s), %zu fault(s) "
      "(%d oracle runs, %d moves accepted)\n",
      minimal.Domains(), minimal.workloads.size(),
      minimal.config.faults.events.size(), stats.oracle_runs, stats.accepted);
  const std::string path = out_dir + "/repro_seed" +
                           std::to_string(found.seed) + ".scenario";
  if (WriteScenarioFile(minimal, path)) {
    std::printf("fuzz_run: minimized repro written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "fuzz_run: cannot write %s\n", path.c_str());
  }
  std::fputs(minimal.ToString().c_str(), stdout);
  return minimal;
}

bool LoadFrontierFile(const std::string& path, CoverageVector* out) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "fuzz_run: cannot read frontier %s\n", path.c_str());
    return false;
  }
  std::string error;
  if (!ParseCoverageText(f, out, &error)) {
    std::fprintf(stderr, "fuzz_run: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

bool WriteFrontierFile(const std::string& path, const CoverageVector& v) {
  std::ofstream f(path);
  if (f) WriteCoverageText(f, v);
  if (!f.good()) {
    std::fprintf(stderr, "fuzz_run: cannot write frontier %s\n", path.c_str());
    return false;
  }
  return true;
}

int Sweep(uint64_t seed0, int count, const std::string& out_dir,
          const std::string& frontier_in, const std::string& frontier_out) {
  CoverageVector frontier;
  const bool guided = !frontier_in.empty();
  if (guided && !LoadFrontierFile(frontier_in, &frontier)) return 2;
  int finds = 0;
  for (int i = 0; i < count; ++i) {
    const uint64_t seed = seed0 + static_cast<uint64_t>(i);
    // Guided mode steers each draw with the live frontier: the file's points
    // plus everything this sweep has already covered.
    const Scenario s = guided ? GenerateScenarioBiased(seed, frontier)
                              : GenerateScenario(seed);
    const OracleReport report = RunOracle(s);
    MergeCoverage(&frontier, report.coverage);
    if (report.failed()) {
      ShrinkAndReport(s, report, out_dir);
      ++finds;
    } else if (!report.coverage_stable) {
      std::fprintf(stderr,
                   "fuzz_run: seed %llu: coverage vector diverged across the "
                   "double run — the map broke determinism\n",
                   static_cast<unsigned long long>(seed));
      return 1;
    }
    if ((i + 1) % 50 == 0) {
      std::printf("fuzz_run: %d/%d scenarios clean so far\n", i + 1 - finds,
                  i + 1);
    }
  }
  if (!frontier_out.empty() && !WriteFrontierFile(frontier_out, frontier)) {
    return 1;
  }
  std::printf("fuzz_run: cumulative %s over %d %s scenario(s)\n",
              CoverageSummary(frontier).c_str(), count,
              guided ? "guided" : "blind");
  if (finds != 0) {
    std::fprintf(stderr, "fuzz_run: %d scenario(s) FAILED out of %d\n", finds,
                 count);
    return 1;
  }
  std::printf("fuzz_run: OK — %d scenarios, all oracles clean (seeds %llu..%llu, checked=%s)\n",
              count, static_cast<unsigned long long>(seed0),
              static_cast<unsigned long long>(seed0 + count - 1),
#if VSCALE_CHECKED
              "on"
#else
              "off"
#endif
  );
  return 0;
}

// Corpus-mutation sweep: single-dimension perturbations of a checked-in
// scenario, each through the full oracle battery.
int MutateSweep(const std::string& base_path, uint64_t seed0, int count,
                const std::string& out_dir) {
  Scenario base;
  if (!LoadLegalScenario(base_path, &base)) return 2;
  CoverageVector cumulative;
  int finds = 0;
  for (int i = 0; i < count; ++i) {
    const uint64_t seed = seed0 + static_cast<uint64_t>(i);
    const Scenario m = MutateScenario(base, seed);
    const OracleReport report = RunOracle(m);
    MergeCoverage(&cumulative, report.coverage);
    if (report.failed()) {
      ShrinkAndReport(m, report, out_dir);
      ++finds;
    }
  }
  std::printf("fuzz_run: cumulative %s over %d mutant(s) of %s\n",
              CoverageSummary(cumulative).c_str(), count, base_path.c_str());
  if (finds != 0) {
    std::fprintf(stderr, "fuzz_run: %d mutant(s) FAILED out of %d\n", finds,
                 count);
    return 1;
  }
  std::printf("fuzz_run: OK — %d mutants of %s, all oracles clean\n", count,
              base_path.c_str());
  return 0;
}

// The guided-generation gate: at an equal budget of single coverage-probe
// runs over the same seed range, the frontier-guided generator must cover
// strictly more catalogue points than the blind one. Deterministic: same
// seeds, same scenarios, same verdict forever.
int CovCheckGate(uint64_t seed0, int count) {
  CoverageVector blind;
  for (int i = 0; i < count; ++i) {
    const Scenario s = GenerateScenario(seed0 + static_cast<uint64_t>(i));
    MergeCoverage(&blind, RunCoverageOnce(s));
  }
  CoverageVector guided;
  for (int i = 0; i < count; ++i) {
    const Scenario s =
        GenerateScenarioBiased(seed0 + static_cast<uint64_t>(i), guided);
    MergeCoverage(&guided, RunCoverageOnce(s));
  }
  const int blind_points = CoveredPoints(blind);
  const int guided_points = CoveredPoints(guided);
  std::printf("fuzz_run: blind  %s\n", CoverageSummary(blind).c_str());
  std::printf("fuzz_run: guided %s\n", CoverageSummary(guided).c_str());
  if (guided_points <= blind_points) {
    std::fprintf(stderr,
                 "fuzz_run: cov-check FAILED: guided generation covered %d "
                 "point(s) vs blind %d at %d runs each — the bias loop is "
                 "not steering\n",
                 guided_points, blind_points, count);
    return 1;
  }
  std::printf("fuzz_run: cov-check OK — guided %d > blind %d point(s) at "
              "%d runs each (seeds %llu..%llu)\n",
              guided_points, blind_points, count,
              static_cast<unsigned long long>(seed0),
              static_cast<unsigned long long>(seed0 + count - 1));
  return 0;
}

// The fuzzer's own end-to-end test: plant the canary, find it, shrink it,
// replay the serialized repro, and check the minimality contract.
int CanaryHunt(uint64_t seed0, int count, const std::string& out_dir) {
  SetFuzzCanary(true);
  for (int i = 0; i < count; ++i) {
    const uint64_t seed = seed0 + static_cast<uint64_t>(i);
    const Scenario s = GenerateScenario(seed);
    const OracleReport report = RunOracle(s);
    if (!report.failed()) continue;

    std::printf("fuzz_run: canary found at seed %llu after %d scenario(s)\n",
                static_cast<unsigned long long>(seed), i + 1);
    if (report.verdict != OracleVerdict::kDigestDivergence) {
      std::fprintf(stderr,
                   "fuzz_run: canary expected digest-divergence, got %s\n",
                   ToString(report.verdict));
      return 1;
    }
    const Scenario minimal = ShrinkAndReport(s, report, out_dir);
    if (minimal.Domains() > 2 ||
        minimal.config.faults.events.size() > 3) {
      std::fprintf(stderr,
                   "fuzz_run: minimized repro too large: %d domain(s), %zu "
                   "fault(s) (want <= 2 and <= 3)\n",
                   minimal.Domains(), minimal.config.faults.events.size());
      return 1;
    }
    // The repro must survive its own serialization: reload the written file
    // and fail identically.
    const std::string path = out_dir + "/repro_seed" +
                             std::to_string(seed) + ".scenario";
    Scenario replayed;
    std::string error;
    if (!LoadScenarioFile(path, &replayed, &error)) {
      std::fprintf(stderr, "fuzz_run: repro does not re-parse: %s\n",
                   error.c_str());
      return 1;
    }
    if (replayed.ToString() != minimal.ToString() ||
        RunOracle(replayed).verdict != OracleVerdict::kDigestDivergence) {
      std::fprintf(stderr,
                   "fuzz_run: replayed repro does not reproduce the find\n");
      return 1;
    }
    std::printf("fuzz_run: canary OK — found, shrunk and replayed from %s\n",
                path.c_str());
    return 0;
  }
  std::fprintf(stderr,
               "fuzz_run: canary NOT found in %d scenario(s) from seed %llu\n",
               count, static_cast<unsigned long long>(seed0));
  return 1;
}

// End-to-end test of the fairness oracle (docs/ADVERSARIAL.md): each file must
// be a hardened antagonist scenario that (a) passes with its mitigations live
// and (b) fails with exactly fairness-violation when the canary strips them —
// proving both directions: the mitigations neutralize the attack, and the
// oracle sees the attack the moment they are gone.
int FairnessCanary(const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    Scenario s;
    if (!LoadLegalScenario(path, &s)) return 2;
    if (s.config.antagonists.empty() || !s.config.hardening.AnyEnabled()) {
      std::fprintf(stderr,
                   "fuzz_run: %s: fairness canary needs a hardened antagonist "
                   "scenario (antagonists=%zu, hardening=%s)\n",
                   path.c_str(), s.config.antagonists.size(),
                   s.config.hardening.AnyEnabled() ? "on" : "off");
      return 2;
    }

    SetFairnessCanary(false);
    const OracleReport hardened = RunOracle(s);
    if (hardened.failed()) {
      std::fprintf(stderr,
                   "fuzz_run: %s: hardened run should pass, got %s — %s\n",
                   path.c_str(), ToString(hardened.verdict),
                   hardened.detail.c_str());
      return 1;
    }

    SetFairnessCanary(true);
    const OracleReport stripped = RunOracle(s);
    SetFairnessCanary(false);
    if (stripped.verdict != OracleVerdict::kFairnessViolation) {
      std::fprintf(stderr,
                   "fuzz_run: %s: stripped run should trip fairness-violation, "
                   "got %s%s%s\n",
                   path.c_str(), ToString(stripped.verdict),
                   stripped.failed() ? " — " : "",
                   stripped.failed() ? stripped.detail.c_str() : "");
      return 1;
    }
    std::printf(
        "fuzz_run: %s: fairness canary OK — hardened pass, stripped %s (%s)\n",
        path.c_str(), ToString(stripped.verdict), stripped.detail.c_str());
  }
  return 0;
}

int Replay(const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    Scenario s;
    if (!LoadLegalScenario(path, &s)) return 2;
    const OracleReport report = RunOracle(s);
    std::printf("fuzz_run: %s: %s%s%s (end %lld ns, %s)\n", path.c_str(),
                ToString(report.verdict), report.failed() ? " — " : "",
                report.failed() ? report.detail.c_str() : "",
                static_cast<long long>(report.end_time),
                CoverageSummary(report.coverage).c_str());
    if (report.failed()) return 1;
    // Corpus gate (docs/FUZZING.md): every checked-in scenario must reach at
    // least one catalogue point and reach the same ones on both oracle runs.
    if (CoveredPoints(report.coverage) <= 0) {
      std::fprintf(stderr, "fuzz_run: %s: coverage vector empty\n",
                   path.c_str());
      return 1;
    }
    if (!report.coverage_stable) {
      std::fprintf(stderr,
                   "fuzz_run: %s: coverage vector not bit-stable across the "
                   "double run\n",
                   path.c_str());
      return 1;
    }
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: fuzz_run --smoke [--seed S] [--count N] [--out DIR]\n"
               "                [--frontier-in F] [--frontier-out F]\n"
               "       fuzz_run --canary [--seed S] [--count N] [--out DIR]\n"
               "       fuzz_run --gen <seed>\n"
               "       fuzz_run --replay <file>...\n"
               "       fuzz_run --mutate <file> [--seed S] [--count N] "
               "[--out DIR]\n"
               "       fuzz_run --cov-check [--seed S] [--count N]\n"
               "       fuzz_run --fairness-canary <file>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  int count = 200;
  std::string out_dir = ".";
  enum class Mode {
    kNone,
    kSmoke,
    kCanary,
    kGen,
    kReplay,
    kMutate,
    kCovCheck,
    kFairnessCanary,
  } mode = Mode::kNone;
  uint64_t gen_seed = 0;
  std::string mutate_path;
  std::string frontier_in;
  std::string frontier_out;
  std::vector<std::string> replay_paths;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      mode = Mode::kSmoke;
    } else if (std::strcmp(argv[i], "--canary") == 0) {
      mode = Mode::kCanary;
    } else if (std::strcmp(argv[i], "--gen") == 0 && i + 1 < argc) {
      mode = Mode::kGen;
      if (!ParseU64(argv[++i], &gen_seed)) return Usage();
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      mode = Mode::kReplay;
    } else if (std::strcmp(argv[i], "--mutate") == 0 && i + 1 < argc) {
      mode = Mode::kMutate;
      mutate_path = argv[++i];
    } else if (std::strcmp(argv[i], "--cov-check") == 0) {
      mode = Mode::kCovCheck;
      count = 40;  // single runs, not double: a lighter default budget
    } else if (std::strcmp(argv[i], "--fairness-canary") == 0) {
      mode = Mode::kFairnessCanary;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      if (!ParseU64(argv[++i], &seed)) return Usage();
    } else if (std::strcmp(argv[i], "--count") == 0 && i + 1 < argc) {
      int64_t n = 0;
      if (!ParseI64(argv[++i], &n) || n < 1 || n > INT32_MAX) return Usage();
      count = static_cast<int>(n);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--frontier-in") == 0 && i + 1 < argc) {
      frontier_in = argv[++i];
    } else if (std::strcmp(argv[i], "--frontier-out") == 0 && i + 1 < argc) {
      frontier_out = argv[++i];
    } else if ((mode == Mode::kReplay || mode == Mode::kFairnessCanary) &&
               argv[i][0] != '-') {
      replay_paths.push_back(argv[i]);
    } else {
      return Usage();
    }
  }

  switch (mode) {
    case Mode::kSmoke:
      return Sweep(seed, count, out_dir, frontier_in, frontier_out);
    case Mode::kCanary:
      return CanaryHunt(seed, count, out_dir);
    case Mode::kGen: {
      const Scenario s = GenerateScenario(gen_seed);
      std::fputs(s.ToString().c_str(), stdout);
      return 0;
    }
    case Mode::kReplay:
      if (replay_paths.empty()) return Usage();
      return Replay(replay_paths);
    case Mode::kMutate:
      return MutateSweep(mutate_path, seed, count, out_dir);
    case Mode::kCovCheck:
      return CovCheckGate(seed, count);
    case Mode::kFairnessCanary:
      if (replay_paths.empty()) return Usage();
      return FairnessCanary(replay_paths);
    case Mode::kNone:
      break;
  }
  return Usage();
}
