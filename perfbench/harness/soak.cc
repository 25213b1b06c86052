// fuzz_soak: GenerateScenario + RunOracle (the double run) over consecutive
// scenario seeds. Each scenario is one timed unit: a short testbed laden with
// faults, antagonists and hardening, so set-up, teardown, the observers and
// the digests weigh more here than steady-state dispatch does.
//
// RunOracle is one opaque call, so a traced pass also replays each scenario
// once through the public Testbed API with spans around set-up, each RunUntil
// chunk, the digest and teardown. Replays run only in traced passes; their
// host time is reported apart so the tracing overhead excludes it.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <vector>

#include "harness/arith.h"
#include "harness/bench.h"
#include "src/fuzz/oracle.h"
#include "src/fuzz/scenario_gen.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/web_server.h"

namespace perfbench {

namespace {

using vscale::Seconds;
using vscale::TimeNs;

constexpr int kScenariosPerPass = 2000;
constexpr int kWarmupScenarios = 10;
// A pass takes a window of consecutive scenario seeds inside 1..kSeedPool,
// skipping the seeds whose oracle verdict was not pass at the commit that
// added this benchmark (fairness-violation and watchdog-no-recovery finds,
// see perfbench/README.md). Every other seed in the pool passes, so a
// failing verdict means the simulator changed, not that a window was unlucky.
constexpr uint64_t kSeedPool = 15000;
constexpr uint64_t kKnownFailing[] = {2323,  3188,  3338,  3474,  3987,  4091,  5215,
                                      5927,  8202,  8678,  8803,  9600,  9774,  10950,
                                      11576, 11632, 12589, 13106, 14905};

// The scenario seeds a pass runs, starting at `first`.
std::vector<uint64_t> Window(uint64_t first, int count) {
  std::vector<uint64_t> out;
  for (uint64_t s = first; static_cast<int>(out.size()) < count; ++s) {
    if (std::find(std::begin(kKnownFailing), std::end(kKnownFailing), s) ==
        std::end(kKnownFailing)) {
      out.push_back(s);
    }
  }
  return out;
}

// Generates and oracles one scenario under spans; false on a failing verdict.
bool GenerateAndCheck(SpanRecorder& rec, uint64_t scenario_seed, vscale::Scenario* scenario,
                      vscale::OracleReport* report) {
  {
    ScopedSpan s(rec, "fuzz.generate");
    *scenario = vscale::GenerateScenario(scenario_seed);
  }
  {
    ScopedSpan s(rec, "fuzz.oracle");
    *report = vscale::RunOracle(*scenario);
  }
  if (report->verdict == vscale::OracleVerdict::kPass) return true;
  std::printf("CHECK FAILED: scenario seed %llu verdict %s: %s\n",
              static_cast<unsigned long long>(scenario_seed), vscale::ToString(report->verdict),
              report->detail.c_str());
  return false;
}

// One run of `s` built as the oracle builds its first run (same testbed config
// and seed, stall accounting on; app seeds differ), through public calls.
void Replay(const vscale::Scenario& s, SpanRecorder& rec, LayerCounts& counts) {
  ScopedSpan replay(rec, "fuzz.replay");
  vscale::TestbedConfig cfg = s.config;
  cfg.seed = s.seed;
  cfg.stall_accounting = true;
  std::unique_ptr<vscale::Testbed> bed;
  {
    ScopedSpan span(rec, "workloads.testbed_ctor");
    bed = std::make_unique<vscale::Testbed>(cfg);
  }
  std::vector<std::unique_ptr<vscale::OmpApp>> apps;
  std::vector<std::unique_ptr<vscale::WebServer>> servers;
  std::vector<std::unique_ptr<vscale::HttperfClient>> clients;
  TimeNs min_end = 0;
  uint64_t salt = 0;
  for (const vscale::WorkloadSpec& w : s.workloads) {
    ++salt;
    if (w.kind == vscale::WorkloadSpec::Kind::kOmp) {
      vscale::OmpAppConfig ac = vscale::NpbProfile(w.app, cfg.primary_vcpus, w.spin_count);
      ac.intervals = w.intervals;
      {
        ScopedSpan span(rec, "workloads.app_ctor");
        apps.push_back(std::make_unique<vscale::OmpApp>(bed->primary(), ac,
                                                        DeriveSeed(s.seed, salt)));
      }
      ScopedSpan span(rec, "workloads.app_start");
      apps.back()->Start();
    } else {
      vscale::WebServerConfig wc;
      wc.workers = w.workers;
      {
        ScopedSpan span(rec, "workloads.app_ctor");
        servers.push_back(std::make_unique<vscale::WebServer>(bed->primary(), bed->sim(), wc,
                                                              DeriveSeed(s.seed, salt)));
        clients.push_back(std::make_unique<vscale::HttperfClient>(
            *servers.back(), bed->sim(), static_cast<double>(w.rps), DeriveSeed(s.seed, salt)));
      }
      ScopedSpan span(rec, "workloads.app_start");
      servers.back()->Start();
      clients.back()->Run(w.start, w.duration);
      min_end = std::max(min_end, w.start + w.duration + vscale::Milliseconds(500));
    }
  }
  for (const vscale::FaultEvent& ev : cfg.faults.events) {
    min_end = std::max(min_end, ev.end() + Seconds(2));
  }
  const auto finished = [&] {
    if (bed->sim().Now() < min_end) return false;
    return std::all_of(apps.begin(), apps.end(), [](const auto& a) { return a->done(); });
  };
  bool done = false;
  while (!done && bed->sim().Now() < s.horizon) {
    ScopedSpan span(rec, "sim.run");
    done = bed->RunUntil(finished, std::min(bed->sim().Now() + Seconds(1), s.horizon));
  }
  counts.AddTestbed(*bed);
  {
    ScopedSpan span(rec, "metrics.digest");
    vscale::StateDigest d;
    d.AbsorbMachine(bed->machine()).AbsorbGuest(bed->primary());
  }
  {
    ScopedSpan span(rec, "workloads.app_dtor");
    clients.clear();
    servers.clear();
    apps.clear();
  }
  {
    ScopedSpan span(rec, "workloads.testbed_dtor");
    bed.reset();
  }
  CloseTestbed(rec, /*traced=*/true, counts);
}

class SoakWorkload : public Workload {
 public:
  explicit SoakWorkload(uint64_t seed)
      : seeds_(Window(1 + DeriveSeed(seed, 0) %
                              (kSeedPool - kScenariosPerPass - std::size(kKnownFailing)),
                      kScenariosPerPass)) {}

  const char* unit_name() const override {
    return "soak scenario (GenerateScenario + RunOracle double run)";
  }

  void Setup() override {
    // Warm-up: scenarios 1..kWarmupScenarios, untimed and the same for every seed.
    SpanRecorder off;
    for (int i = 1; i <= kWarmupScenarios; ++i) {
      vscale::Scenario s;
      vscale::OracleReport r;
      GenerateAndCheck(off, static_cast<uint64_t>(i), &s, &r);
    }
  }

  Pass RunPass(SpanRecorder& rec, bool traced) override {
    Pass pass;
    const int64_t t0 = NowNs();
    for (uint64_t scenario_seed : seeds_) {
      UnitScope unit(pass, rec, "unit", /*timed=*/true);
      vscale::Scenario s;
      vscale::OracleReport r;
      ++pass.attempted;
      if (!GenerateAndCheck(rec, scenario_seed, &s, &r)) ++pass.failed;
      pass.digest.Absorb(r.digest1).Absorb(r.end_time);
      pass.sim_ns += 2 * r.end_time;  // the oracle runs each scenario twice
      if (traced) {
        const int64_t r0 = NowNs();
        Replay(s, rec, pass.counts);
        pass.traced_only_ns += NowNs() - r0;
      }
    }
    pass.wall_ns = NowNs() - t0;
    attempted_ += pass.attempted;
    failed_ += pass.failed;
    return pass;
  }

  bool Report() override {
    std::printf("\noutcome: %d scenario seeds %llu..%llu per pass; %lld of %lld oracle runs "
                "not verdict pass\n",
                kScenariosPerPass, static_cast<unsigned long long>(seeds_.front()),
                static_cast<unsigned long long>(seeds_.back()),
                static_cast<long long>(failed_), static_cast<long long>(attempted_));
    std::printf("  failed_ops_frac  %.6f  (non-pass verdicts / scenarios)\n",
                FailureFraction(failed_, attempted_));
    return failed_ == 0;
  }

 private:
  std::vector<uint64_t> seeds_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace

bool RunFuzzProbe(SpanRecorder& rec, uint64_t seed, int count) {
  bool ok = true;
  for (int i = 0; i < count; ++i) {
    ScopedSpan unit(rec, "probe");
    vscale::Scenario s;
    vscale::OracleReport r;
    const uint64_t first = 1 + DeriveSeed(seed, 100 + static_cast<uint64_t>(i)) % kSeedPool;
    ok = GenerateAndCheck(rec, Window(first, 1).front(), &s, &r) && ok;
  }
  return ok;
}

std::unique_ptr<Workload> MakeSoakWorkload(uint64_t seed) {
  return std::make_unique<SoakWorkload>(seed);
}

}  // namespace perfbench
