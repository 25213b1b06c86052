// perfbench: the repository benchmark's measuring program (perfbench/README.md).
//
//   perfbench --workload npb_consolidated|web_open_loop|fuzz_soak --seed N
//             --seconds S --trace 0|1 [--setup-only] [--spans-out FILE]
//
// Runs passes of the workload's fixed work, single-threaded, until S host
// seconds have gone by, checks the outputs, and prints a report whose last
// line is one JSON object. --trace 0 reports the end-to-end metrics (all but
// setup_s, which perfbench/run.py measures over fresh processes); --trace 1
// spends half the budget untraced and half traced, and reports the per-layer
// metrics. --setup-only prints "ready" at the first timed unit and exits.

#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/arith.h"
#include "harness/bench.h"
#include "harness/spans.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool setup_only = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (k == "--setup-only") {
      a->setup_only = true;
      continue;
    }
    if (v == nullptr) return false;
    ++i;
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      have_seed = *end == '\0';
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0') return false;
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") == 0 ? 0 : std::strcmp(v, "1") == 0 ? 1 : -1;
    } else if (k == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && have_seed && a->seconds > 0 && (a->trace >= 0 || a->setup_only);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "npb_consolidated") return MakeNpbWorkload(seed);
  if (name == "web_open_loop") return MakeWebWorkload(seed);
  if (name == "fuzz_soak") return MakeSoakWorkload(seed);
  return nullptr;
}

// Runs passes until `budget_s` host seconds have gone by (at least one).
std::vector<Pass> RunPasses(Workload& w, SpanRecorder& rec, bool traced, double budget_s) {
  std::vector<Pass> passes;
  const int64_t t0 = NowNs();
  do {
    passes.push_back(w.RunPass(rec, traced));
  } while (static_cast<double>(NowNs() - t0) / 1e9 < budget_s);
  return passes;
}

double MedianWallS(const std::vector<Pass>& passes, bool minus_traced_only) {
  std::vector<double> v;
  for (const Pass& p : passes) {
    v.push_back(static_cast<double>(p.wall_ns - (minus_traced_only ? p.traced_only_ns : 0)) / 1e9);
  }
  return Median(v);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// The result line: the last line of stdout.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
    json += buf;
  }
  std::printf("%s}}\n", json.c_str());
}

std::vector<Metric> EndToEnd(const std::vector<Pass>& passes) {
  // The tail is taken per pass, so its percentile depends on the fixed units
  // per pass and not on how many passes a host fits in the budget; the
  // median over passes is reported.
  std::vector<double> units, tails;
  Tail tail;
  int64_t sim_ns = 0, wall_ns = 0;
  for (const Pass& p : passes) {
    units.insert(units.end(), p.unit_ms.begin(), p.unit_ms.end());
    tail = SelectTail(p.unit_ms);
    tails.push_back(tail.value);
    sim_ns += p.sim_ns;
    wall_ns += p.wall_ns;
  }
  const std::vector<Metric> m = {
      {"wall_s", MedianWallS(passes, false), "s"},
      {"sim_s_per_wall_s", static_cast<double>(sim_ns) / static_cast<double>(wall_ns), "s/s"},
      {"unit_ms_p50", Median(units), "ms"},
      {"unit_ms_tail", Median(tails), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"}};
  std::printf("\nend to end (host time, untraced; %zu passes, %zu timed units)\n", passes.size(),
              units.size());
  for (const Metric& x : m) {
    std::printf("  %-17s %.6f %s\n", x.name.c_str(), x.value, x.unit);
  }
  std::printf("  wall_s is the median pass; unit_ms_tail the median over passes of each pass's "
              "p%g over its %lld units, %lld beyond it\n",
              tail.percentile, static_cast<long long>(tail.samples),
              static_cast<long long>(tail.beyond));
  return m;
}

// Per-layer metrics from the traced passes' spans and counts.
std::vector<Metric> PerLayer(const SpanRecorder& rec, const std::vector<Pass>& untraced,
                             const std::vector<Pass>& traced) {
  const std::vector<int64_t> self = SelfTimes(rec.spans());
  std::map<std::string, LayerTime> layers = AggregateByName(rec.spans(), self);
  int64_t testbeds = 0, events = 0, traced_wall = 0;
  for (const Pass& p : traced) {
    testbeds += p.counts.testbeds;
    events += p.counts.sim_events;
    traced_wall += p.wall_ns;
  }
  const auto self_ns = [&](std::initializer_list<const char*> names) {
    int64_t sum = 0;
    for (const char* n : names) sum += layers[n].self_ns;
    return static_cast<double>(sum);
  };
  const auto per_call = [&](const char* name, double scale) {
    const LayerTime& t = layers[name];
    return t.calls > 0 ? static_cast<double>(t.self_ns) / static_cast<double>(t.calls) / scale
                       : 0.0;
  };
  const double per_testbed = testbeds > 0 ? 1e6 * static_cast<double>(testbeds) : 1.0;

  std::printf("\nper layer (host self time from spans over %zu traced passes)\n", traced.size());
  std::printf("  %-26s %8s %14s %8s\n", "span", "calls", "self ms", "share");
  for (const auto& [name, t] : layers) {
    std::printf("  %-26s %8lld %14.3f %7.2f%%\n", name.c_str(), static_cast<long long>(t.calls),
                static_cast<double>(t.self_ns) / 1e6,
                100.0 * static_cast<double>(t.self_ns) / static_cast<double>(traced_wall));
  }

  // Attribution: a unit root's self time is the part no layer span covers.
  std::map<std::string, std::vector<double>> share;
  for (const UnitAttribution& u : AttributeUnits(rec.spans(), self)) {
    share[u.name].push_back(u.wall_ns > 0 ? static_cast<double>(u.unattributed_ns) /
                                                static_cast<double>(u.wall_ns)
                                          : 0.0);
  }
  std::printf("  unattributed remainder per unit (unit-root self time / unit wall time):\n");
  for (auto& [name, v] : share) {
    int over = 0;
    for (double s : v) over += s > 0.10 ? 1 : 0;
    std::printf("    %-10s %6zu units  median %.3f%%  max %.3f%%  %d above 10%%\n", name.c_str(),
                v.size(), 100.0 * Median(v), 100.0 * Percentile(v, 100.0), over);
  }
  const double overhead = MedianWallS(traced, true) / MedianWallS(untraced, false);
  std::printf("  tracing overhead: traced wall_s / untraced wall_s = %.4f", overhead);
  if (traced.front().traced_only_ns > 0) {
    std::printf(" (excluding traced-only replays; %.4f including them)",
                MedianWallS(traced, false) / MedianWallS(untraced, false));
  }
  std::printf("\n");

  const LayerCounts& c = traced.front().counts;
  std::vector<Metric> m = {
      {"sim.events", static_cast<double>(c.sim_events), "count"},
      {"sim.ns_per_event", events > 0 ? self_ns({"sim.run"}) / static_cast<double>(events) : 0.0,
       "ns"},
      {"hypervisor.context_switches", static_cast<double>(c.context_switches), "count"},
      {"hypervisor.boost_grants", static_cast<double>(c.boost_grants), "count"},
      {"hypervisor.primary_wait_ms", static_cast<double>(c.primary_wait_ns) / 1e6, "sim_ms"},
      {"guest.resched_ipis", static_cast<double>(c.resched_ipis), "count"},
      {"guest.io_irqs", static_cast<double>(c.io_irqs), "count"},
      {"guest.timer_ints", static_cast<double>(c.timer_ints), "count"},
      {"vscale.daemon_cycles", static_cast<double>(c.daemon_cycles), "count"},
      {"vscale.freezes", static_cast<double>(c.freezes), "count"},
      {"vscale.unfreezes", static_cast<double>(c.unfreezes), "count"},
      {"vscale.channel_reads", static_cast<double>(c.channel_reads), "count"},
      {"workloads.setup_ms",
       self_ns({"workloads.testbed_ctor", "workloads.app_ctor", "workloads.app_start"}) /
           per_testbed,
       "ms"},
      {"workloads.teardown_ms",
       self_ns({"workloads.app_dtor", "workloads.testbed_dtor"}) / per_testbed, "ms"},
      {"metrics.digest_us", per_call("metrics.digest", 1e3), "us"},
      {"fuzz.generate_us", per_call("fuzz.generate", 1e3), "us"},
      {"fuzz.oracle_ms", per_call("fuzz.oracle", 1e6), "ms"},
  };
  static const char* const kStallNames[kStallReported] = {
      "obs.stall.runnable_wait_ms", "obs.stall.lhp_spin_ms", "obs.stall.futex_ms",
      "obs.stall.ipi_in_flight_ms", "obs.stall.frozen_ms"};
  for (int i = 0; i < kStallReported; ++i) {
    m.push_back({kStallNames[i], static_cast<double>(c.stall_ns[i]) / 1e6, "sim_ms"});
  }
  m.push_back({"tracing.overhead", overhead, "ratio"});

  std::printf("\nper-layer metrics (counts and simulated sim_ms per pass; host times per call)\n");
  for (const Metric& x : m) {
    std::printf("  %-28s %16.6f %s\n", x.name.c_str(), x.value, x.unit);
  }
  return m;
}

int Run(const Args& args) {
  // Blocks of 1 MiB and up (the web server's per-request sample vectors) always
  // come from mmap and return to the OS when freed. glibc's default sliding
  // threshold moves them into the heap after the first free, and peak RSS then
  // drifts with fragmentation across identical passes.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  w->Setup();
  if (args.setup_only) {
    std::printf("ready\n");
    std::fflush(stdout);
    return 0;
  }
  std::printf("perfbench %s seed %llu: one timed unit = %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), w->unit_name());

  SpanRecorder rec;
  const double untraced_budget = args.trace == 1 ? args.seconds / 2 : args.seconds;
  std::vector<Pass> untraced = RunPasses(*w, rec, /*traced=*/false, untraced_budget);
  std::vector<Pass> traced;
  bool correct = true;
  if (args.trace == 1) {
    rec.set_enabled(true);
    traced = RunPasses(*w, rec, /*traced=*/true, args.seconds / 2);
    if (args.workload != "fuzz_soak") correct = RunFuzzProbe(rec, args.seed, 2);
    rec.set_enabled(false);
  }

  int64_t attempted = 0, failed = 0;
  const uint64_t digest = untraced.front().digest.value();
  for (const auto* set : {&untraced, &traced}) {
    for (const Pass& p : *set) {
      attempted += p.attempted;
      failed += p.failed;
      if (p.digest.value() != digest) {
        std::printf("CHECK FAILED: a pass digested to %s, the first to %s\n",
                    p.digest.Hex().c_str(), untraced.front().digest.Hex().c_str());
        correct = false;
      }
    }
  }
  correct = w->Report() && correct && failed == 0;
  std::printf("digest %s %s\n", args.workload.c_str(), untraced.front().digest.Hex().c_str());

  const std::vector<Metric> metrics =
      args.trace == 1 ? PerLayer(rec, untraced, traced) : EndToEnd(untraced);
  if (!args.spans_out.empty() && args.trace == 1) {
    std::string error;
    if (!rec.WriteChromeTrace(args.spans_out, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      correct = false;
    }
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--setup-only] [--spans-out FILE]\n");
    return 2;
  }
  return perfbench::Run(args);
}
