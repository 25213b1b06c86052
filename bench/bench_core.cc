// bench_core: the repo's canonical performance snapshot. Runs the event-engine
// micro loops, the consolidated testbed, and a short fuzz-oracle soak, and
// emits BENCH_core.json in the stable vscale-bench-core-v1 schema that the CI
// perf gate and tools/bench_diff consume (docs/PERFORMANCE.md documents every
// field and the gate's tolerance-band policy).
//
//   bench_core [--out FILE] [--quick] [--repeats N]
//              [--check BASELINE [--tolerance PCT]]
//              [--inject-slowdown[=SPINS]]
//
//   --out FILE          where to write the JSON (default BENCH_core.json)
//   --quick             CI-sized run: fewer iterations and repeats
//   --repeats N         repeats per metric, N >= 1; the best repeat is reported
//                       (the minimum-time estimator — scheduler noise only
//                       ever adds time, so the floor is the signal)
//   --check BASELINE    compare gated metrics against a baseline JSON and
//                       exit 1 if any regresses beyond the tolerance band
//   --tolerance PCT     band half-width for --check, a finite number >= 0
//                       (default 50; generous on purpose — shared CI runners
//                       drift ±20-30%, and the gate's job is catching
//                       structural slowdowns, not ns)
//   --inject-slowdown   negative-test hook: burn a calibrated spin per event
//                       so a healthy build reads like a regression; CI runs
//                       this to prove the gate actually trips (red-gate test)
//
// This tool measures wall time by design — it is the one place in the tree
// where real time is the subject, not a determinism hazard. The simulation
// runs inside it remain virtual-time and seed-driven.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/parse.h"
#include "src/base/rng.h"
#include "src/fuzz/oracle.h"
#include "src/fuzz/scenario_gen.h"
#include "src/sim/event_queue.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/testbed.h"
#include "tools/flat_json.h"

namespace {

using namespace vscale;

// --inject-slowdown: artificial per-event work, used only by the CI red-gate
// negative test. ~400 spins costs a few hundred ns per event on any machine —
// far outside every tolerance band, which is the point.
int g_slowdown_spins = 0;

inline void InjectedSlowdown() {
  volatile int sink = 0;
  for (int i = 0; i < g_slowdown_spins; ++i) {
    sink = sink + 1;
  }
}

double NowSec() {
  using Clock = std::chrono::steady_clock;  // vslint: allow(wall-clock, this benchmark measures real elapsed time; the simulations inside stay virtual-time)
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

// ns per schedule+fire round trip on a hot, near-empty queue — the engine's
// absolute floor.
double MeasureScheduleFireNs(int iters, int repeats) {
  double best = 1e18;
  for (int r = 0; r < repeats; ++r) {
    Simulator sim;
    int64_t counter = 0;
    const double t0 = NowSec();
    for (int i = 0; i < iters; ++i) {
      sim.ScheduleAfter(1, [&counter] { ++counter; });
      sim.Step();
      if (g_slowdown_spins > 0) InjectedSlowdown();
    }
    const double dt = NowSec() - t0;
    if (counter != iters) std::abort();  // defeated optimizer or broken queue
    best = std::min(best, dt * 1e9 / iters);
  }
  return best;
}

// ns per timer-lane fire plus the fired timer's self re-arm, with `timers` - 1
// other timers armed. Every timer re-arms itself a seeded delay ahead, so each
// re-arm lands at a random rank of a full lane: the insertion shifts about half
// of it. 12 timers is the largest pCPU pool in the tree, 64 five times that.
double MeasureTimerRearmFireNs(int timers, int iters, int repeats) {
  struct Lane {
    Simulator sim;
    std::vector<Simulator::Timer> timers;
    std::vector<TimeNs> delays;  // seeded, so every repeat replays one schedule
    size_t next = 0;
    int64_t fires = 0;
  };
  double best = 1e18;
  for (int r = 0; r < repeats; ++r) {
    Lane lane;
    Rng rng(static_cast<uint64_t>(timers));
    lane.delays.resize(4096);
    for (TimeNs& d : lane.delays) {
      d = 1 + static_cast<TimeNs>(rng.NextBelow(1000));
    }
    for (int t = 0; t < timers; ++t) {
      lane.timers.push_back(lane.sim.AddTimer([&lane, t] {
        ++lane.fires;
        const TimeNs d = lane.delays[lane.next++ & (lane.delays.size() - 1)];
        lane.timers[static_cast<size_t>(t)].Arm(lane.sim.Now() + d);
      }));
    }
    for (Simulator::Timer& timer : lane.timers) {
      timer.Arm(lane.delays[lane.next++]);
    }
    const double t0 = NowSec();
    for (int i = 0; i < iters; ++i) {
      lane.sim.Step();
      if (g_slowdown_spins > 0) InjectedSlowdown();
    }
    const double dt = NowSec() - t0;
    if (lane.fires != iters) std::abort();  // defeated optimizer or broken lane
    best = std::min(best, dt * 1e9 / iters);
  }
  return best;
}

struct TestbedResult {
  double wall_ms_per_sim_sec = 0;
  double events_per_sec = 0;  // fired per wall second
  double ns_per_event = 0;
};

// Wall cost of one simulated second of the consolidated testbed (vScale policy,
// 4-vCPU NPB cg).
TestbedResult MeasureTestbed(int sim_seconds, int repeats) {
  TestbedResult result;
  double best = 1e18;
  for (int r = 0; r < repeats; ++r) {
    TestbedConfig tb;
    tb.policy = Policy::kVscale;
    tb.primary_vcpus = 4;
    Testbed bed(tb);
    OmpAppConfig ac = NpbProfile("cg", 4, kSpinCountDefault);
    ac.intervals = 1'000'000;
    OmpApp app(bed.primary(), ac, 9);
    bed.sim().RunUntil(Milliseconds(200));
    app.Start();
    // The injected slowdown rides a high-frequency periodic event so the
    // testbed metric, not just the micro loops, goes red under --inject-slowdown.
    PeriodicTask drag(bed.sim(), Microseconds(10), [] { InjectedSlowdown(); });
    if (g_slowdown_spins > 0) drag.Start();
    const uint64_t events0 = bed.sim().events_processed();
    const double t0 = NowSec();
    for (int s = 0; s < sim_seconds; ++s) {
      bed.sim().RunUntil(bed.sim().Now() + Seconds(1));
    }
    const double dt = NowSec() - t0;
    const double events = static_cast<double>(bed.sim().events_processed() - events0);
    if (dt * 1e3 / sim_seconds < best) {
      best = dt * 1e3 / sim_seconds;
      result.wall_ms_per_sim_sec = best;
      result.events_per_sec = events / dt;
      result.ns_per_event = dt * 1e9 / events;
    }
  }
  return result;
}

// Fuzz-oracle scenarios (generate + full double-run battery) per wall minute —
// the number that sizes nightly soak budgets (docs/FUZZING.md). The best of
// `repeats` passes over the same `count` scenarios.
double MeasureSoakScenariosPerMin(int count, int repeats) {
  // One untimed warmup scenario: first-run costs (lazy init, cold caches)
  // otherwise dominate short runs and make the quick mode noisy.
  (void)RunOracle(GenerateScenario(8999));
  double best = 0;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = NowSec();
    for (int i = 0; i < count; ++i) {
      const Scenario s = GenerateScenario(static_cast<uint64_t>(9000 + i));
      const OracleReport report = RunOracle(s);
      if (report.failed()) {
        std::fprintf(stderr, "bench_core: soak scenario seed %d failed: %s\n",
                     9000 + i, ToString(report.verdict));
        std::abort();  // a perf snapshot must not paper over a real failure
      }
    }
    best = std::max(best, 60.0 * count / (NowSec() - t0));
  }
  return best;
}

struct Metrics {
  // Wall-clock measurement results, not simulation state: double is correct here.
  double schedule_fire_ns = 0;  // vslint: allow(float-accum, wall-clock measurement result, not simulation state)
  double rearm_fire_ns_12 = 0;
  double rearm_fire_ns_64 = 0;
  TestbedResult testbed;
  double soak_per_min = 0;
};

std::string FormatJson(const Metrics& m, bool quick, int repeats) {
  char buf[2048];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"schema\": \"vscale-bench-core-v1\",\n"
                "  \"quick\": %s,\n"
                "  \"repeats\": %d,\n"
                "  \"metrics\": {\n"
                "    \"event_schedule_fire_ns\": %.2f,\n"
                "    \"timer_rearm_fire_ns_12\": %.2f,\n"
                "    \"timer_rearm_fire_ns_64\": %.2f,\n"
                "    \"events_per_sec\": %.0f,\n"
                "    \"testbed_wall_ms_per_sim_sec\": %.3f,\n"
                "    \"testbed_sim_sec_per_wall_sec\": %.2f,\n"
                "    \"testbed_events_per_sec\": %.0f,\n"
                "    \"testbed_ns_per_event\": %.2f,\n"
                "    \"soak_scenarios_per_min\": %.1f\n"
                "  }\n"
                "}\n",
                quick ? "true" : "false", repeats, m.schedule_fire_ns,
                m.rearm_fire_ns_12, m.rearm_fire_ns_64,
                1e9 / m.schedule_fire_ns, m.testbed.wall_ms_per_sim_sec,
                1e3 / m.testbed.wall_ms_per_sim_sec, m.testbed.events_per_sec,
                m.testbed.ns_per_event, m.soak_per_min);
  return buf;
}

// The gated subset: one lower-is-better number per benchmark family, so a
// derived rate can never double-count a miss. soak throughput is gated as
// higher-is-better. The timer-lane micros are reported but not gated: no
// CI-class baseline exists for them yet.
struct GateRule {
  const char* key;
  bool lower_is_better;
};
constexpr GateRule kGates[] = {
    {"metrics.event_schedule_fire_ns", true},
    {"metrics.testbed_wall_ms_per_sim_sec", true},
    {"metrics.soak_scenarios_per_min", false},
};

int CheckAgainstBaseline(const std::string& current_json,
                         const std::string& baseline_path, double tolerance_pct) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "bench_core: cannot open baseline %s\n",
                 baseline_path.c_str());
    return 2;
  }
  std::string baseline_text((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  FlatJson baseline, current;
  std::string err;
  if (!ParseFlatJson(baseline_text, &baseline, &err)) {
    std::fprintf(stderr, "bench_core: baseline parse error: %s\n", err.c_str());
    return 2;
  }
  if (!ParseFlatJson(current_json, &current, &err)) {
    std::fprintf(stderr, "bench_core: self parse error: %s\n", err.c_str());
    return 2;
  }
  const double band = tolerance_pct / 100.0;
  int failures = 0;
  std::printf("\nperf gate vs %s (tolerance %.0f%%)\n", baseline_path.c_str(),
              tolerance_pct);
  std::printf("  %-38s %12s %12s %8s  %s\n", "metric", "baseline", "current",
              "ratio", "verdict");
  for (const GateRule& g : kGates) {
    const auto b = baseline.find(g.key);
    const auto c = current.find(g.key);
    if (b == baseline.end() || !b->second.is_number) {
      std::fprintf(stderr, "bench_core: baseline missing %s\n", g.key);
      return 2;
    }
    if (c == current.end() || !c->second.is_number) {
      std::fprintf(stderr, "bench_core: current run missing %s\n", g.key);
      return 2;
    }
    const double ratio = c->second.number / b->second.number;
    const bool ok = g.lower_is_better ? ratio <= 1.0 + band : ratio >= 1.0 / (1.0 + band);
    std::printf("  %-38s %12.2f %12.2f %7.2fx  %s\n", g.key, b->second.number,
                c->second.number, ratio, ok ? "ok" : "REGRESSION");
    if (!ok) ++failures;
  }
  if (failures > 0) {
    std::printf("perf gate: %d metric(s) outside the band — see "
                "docs/PERFORMANCE.md for the triage workflow\n",
                failures);
    return 1;
  }
  std::printf("perf gate: all gated metrics within the band\n");
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_core [--out FILE] [--quick] [--repeats N>=1]\n"
               "                  [--check BASELINE [--tolerance PCT]]\n"
               "                  [--inject-slowdown[=SPINS]]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_core.json";
  std::string baseline_path;
  double tolerance_pct = 50.0;
  bool quick = false;
  int repeats = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--tolerance" && i + 1 < argc) {
      // A band is a finite, non-negative percentage: "50abc" is not 50.
      if (!ParseF64(argv[++i], &tolerance_pct) || tolerance_pct < 0) return Usage();
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--repeats" && i + 1 < argc) {
      // At least one repeat: with none, every best-of stays at its 1e18
      // sentinel and the snapshot would pass the gate on garbage.
      int64_t n = 0;
      if (!ParseI64(argv[++i], &n) || n < 1 || n > INT32_MAX) return Usage();
      repeats = static_cast<int>(n);
    } else if (arg == "--inject-slowdown") {
      g_slowdown_spins = 400;
    } else if (arg.rfind("--inject-slowdown=", 0) == 0) {
      int64_t n = 0;
      if (!ParseI64(std::string_view(arg).substr(std::strlen("--inject-slowdown=")),
                    &n) ||
          n < 0 || n > INT32_MAX) {
        return Usage();
      }
      g_slowdown_spins = static_cast<int>(n);
    } else {
      return Usage();
    }
  }

  const int micro_iters = quick ? 1'000'000 : 2'000'000;
  const int sim_seconds = quick ? 1 : 2;
  const int soak_count = quick ? 10 : 20;
  if (quick && repeats > 2) repeats = 2;

  Metrics m;
  std::printf("bench_core: schedule/fire micro (%d iters x %d)...\n", micro_iters,
              repeats);
  m.schedule_fire_ns = MeasureScheduleFireNs(micro_iters, repeats);
  std::printf("  event_schedule_fire_ns      %10.2f  (%.1fM events/sec)\n",
              m.schedule_fire_ns, 1e3 / m.schedule_fire_ns);
  std::printf("bench_core: timer-lane re-arm/fire micro (12 and 64 timers)...\n");
  m.rearm_fire_ns_12 = MeasureTimerRearmFireNs(12, micro_iters, repeats);
  m.rearm_fire_ns_64 = MeasureTimerRearmFireNs(64, micro_iters, repeats);
  std::printf("  timer_rearm_fire_ns_12      %10.2f\n", m.rearm_fire_ns_12);
  std::printf("  timer_rearm_fire_ns_64      %10.2f\n", m.rearm_fire_ns_64);
  std::printf("bench_core: consolidated testbed (%d sim-sec x %d)...\n",
              sim_seconds, repeats);
  m.testbed = MeasureTestbed(sim_seconds, repeats);
  std::printf("  testbed_wall_ms_per_sim_sec %10.3f  (%.0f sim-sec/wall-sec, "
              "%.0f ns/event)\n",
              m.testbed.wall_ms_per_sim_sec, 1e3 / m.testbed.wall_ms_per_sim_sec,
              m.testbed.ns_per_event);
  std::printf("bench_core: fuzz-oracle soak (%d scenarios x %d)...\n", soak_count,
              repeats);
  m.soak_per_min = MeasureSoakScenariosPerMin(soak_count, repeats);
  std::printf("  soak_scenarios_per_min      %10.1f\n", m.soak_per_min);

  const std::string json = FormatJson(m, quick, repeats);
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_core: cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << json;
  out.close();
  std::printf("bench_core: wrote %s\n", out_path.c_str());

  if (!baseline_path.empty()) {
    return CheckAgainstBaseline(json, baseline_path, tolerance_pct);
  }
  return 0;
}
