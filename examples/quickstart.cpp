// Quickstart: build the paper's consolidated testbed, run one NPB-style application
// under vanilla Xen/Linux and under vScale, and compare execution time, scheduling
// delay (VM waiting time) and IPI load.
//
//   $ ./examples/quickstart [app] [vcpus] [--trace out.json] [--metrics out.csv]
//                           [--digest] [--faults <plan>] [--stall]
//                           [--stall-csv out.csv]
//
// --trace records both runs into the flight recorder and writes a Chrome trace_event
// JSON file (open it in ui.perfetto.dev); --metrics dumps the end-of-run counter
// registry as CSV (docs/OBSERVABILITY.md). --digest prints the 64-bit state
// digest of the pair of runs: identical invocations must print identical
// digests, in every build flavour (docs/CHECKING.md). Each flag attaches its
// own sink (TestbedConfig::observers); without flags the runs observe nothing.
//
// --stall turns on stall attribution: per-vCPU exclusive-state time buckets,
// latency histograms and per-domain counter tracks in the trace. --stall-csv
// (implies --stall) writes the bucket time series for tools/stall_report:
//
//   $ ./examples/quickstart lu 4 --stall-csv stall.csv && ./tools/stall_report stall.csv
//
// --faults injects a deterministic fault plan (docs/FAULTS.md) into the vScale run
// (the baseline has no control plane to fault). Try a daemon stall mid-run and watch
// the watchdog trip, the VM get its safe floor back, and the daemon re-converge:
//
//   $ ./examples/quickstart lu 4 --faults 'stall@1s+2s'
//   $ ./examples/quickstart lu 4 --faults 'chan-stale@500ms+1s;crash@2s+1s'
//
// Demonstrates the core public API: Testbed (machine + guests + vScale wiring),
// OmpApp (workload), and the metric snapshot helpers.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/base/metrics_registry.h"
#include "src/base/parse.h"
#include "src/base/table.h"
#include "src/base/trace.h"
#include "src/faults/fault_plan.h"
#include "src/metrics/run_metrics.h"
#include "src/metrics/state_digest.h"
#include "src/metrics/trace_export.h"
#include "src/obs/stall_accounting.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/testbed.h"

namespace {

struct RunOutcome {
  vscale::TimeNs duration;
  vscale::TimeNs wait;
  double ipi_rate;
  bool finished;
  // Fault/recovery summary (vScale runs with a --faults plan only).
  int64_t faults_started = 0;
  int64_t read_retries = 0;
  int64_t stale_held = 0;
  int64_t degradations = 0;
  int64_t resumes = 0;
  int64_t watchdog_trips = 0;
  int64_t crashes = 0;
  int64_t restarts = 0;
  bool degraded_at_end = false;
};

RunOutcome RunOnce(vscale::Policy policy, const std::string& app_name, int vcpus,
                   uint64_t seed, vscale::StateDigest* digest,
                   const vscale::FaultPlan& faults, const vscale::Observers& obs) {
  using namespace vscale;
  TestbedConfig cfg;
  cfg.policy = policy;
  cfg.primary_vcpus = vcpus;
  cfg.seed = seed;
  cfg.observers = obs;
  // Faults only make sense where there is a control plane to harden; the baseline
  // run stays clean so the comparison still shows vScale's healthy-path win.
  if (PolicyUsesVscale(policy)) {
    cfg.faults = faults;
  }
  Testbed bed(cfg);

  OmpAppConfig app_cfg = NpbProfile(app_name, vcpus, kSpinCountActive);
  OmpApp app(bed.primary(), app_cfg, seed ^ 0xA4450ULL);

  // Let the machine settle (daemon boots, desktops start), then launch the app.
  bed.sim().RunUntil(Milliseconds(200));
  const GuestCounters before = SnapshotCounters(bed.primary());
  app.Start();
  const bool finished =
      bed.RunUntil([&] { return app.done(); }, Seconds(600));
  const GuestCounters delta = SnapshotCounters(bed.primary()) - before;

  if (digest != nullptr) {
    digest->Absorb(app.duration());
    digest->AbsorbMachine(bed.machine());
    digest->AbsorbGuest(bed.primary());
  }

  RunOutcome out;
  out.finished = finished;
  out.duration = app.duration();
  out.wait = delta.domain_wait;
  out.ipi_rate = PerVcpuPerSecond(delta.resched_ipis, vcpus, app.duration());
  if (bed.faults() != nullptr && bed.daemon() != nullptr) {
    out.faults_started = bed.faults()->events_started();
    out.read_retries = bed.daemon()->read_retries();
    out.stale_held = bed.daemon()->stale_held_cycles();
    out.degradations = bed.daemon()->degradations();
    out.resumes = bed.daemon()->resumes();
    out.crashes = bed.daemon()->crashes();
    out.restarts = bed.daemon()->restarts();
    out.degraded_at_end = bed.daemon()->degraded();
    if (bed.watchdog() != nullptr) {
      out.watchdog_trips = bed.watchdog()->trips();
    }
  }
  return out;
}

constexpr const char* kUsage =
    "usage: quickstart [app] [vcpus] [--trace out.json] [--metrics out.csv] "
    "[--digest] [--faults <plan>] [--stall] [--stall-csv out.csv]\n";

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string metrics_path;
  std::string stall_csv_path;
  bool want_digest = false;
  bool want_stall = false;
  vscale::FaultPlan faults;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 || std::strcmp(argv[i], "--metrics") == 0 ||
        std::strcmp(argv[i], "--stall-csv") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s%s requires a path\n", kUsage, argv[i]);
        return 2;
      }
      if (std::strcmp(argv[i], "--trace") == 0) {
        trace_path = argv[i + 1];
      } else if (std::strcmp(argv[i], "--metrics") == 0) {
        metrics_path = argv[i + 1];
      } else {
        stall_csv_path = argv[i + 1];
        want_stall = true;
      }
      ++i;
    } else if (std::strcmp(argv[i], "--digest") == 0) {
      want_digest = true;
    } else if (std::strcmp(argv[i], "--stall") == 0) {
      want_stall = true;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--faults requires a plan, e.g. 'stall@1s+2s'\n");
        return 2;
      }
      std::string error;
      if (!vscale::ParseFaultPlan(argv[i + 1], &faults, &error)) {
        std::fprintf(stderr, "--faults: %s\n", error.c_str());
        return 2;
      }
      ++i;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const std::string app = !positional.empty() ? positional[0] : "lu";
  int vcpus = 4;
  if (positional.size() > 1) {
    int64_t n = 0;
    if (!vscale::ParseI64(positional[1], &n) || n < 1 ||
        n > vscale::kMaxVcpusPerDomain) {
      std::fprintf(stderr, "%svcpus must be an integer in 1..%d, got '%s'\n", kUsage,
                   vscale::kMaxVcpusPerDomain, positional[1].c_str());
      return 2;
    }
    vcpus = static_cast<int>(n);
  }

  // Attach only the sinks the flags ask for; an unobserved run builds none.
  std::unique_ptr<vscale::Tracer> tracer;
  std::unique_ptr<vscale::StallAccountant> stall;
  std::unique_ptr<vscale::MetricsRegistry> metrics;
  if (!trace_path.empty()) {
    // Both runs (baseline then vScale) share one timeline; a larger ring keeps the
    // baseline window from being overwritten by the second run (~50 MB transient).
    tracer = std::make_unique<vscale::Tracer>(1u << 20);
  }
  if (want_stall) {
    stall = std::make_unique<vscale::StallAccountant>();
  }
  if (!metrics_path.empty() || want_digest) {
    metrics = std::make_unique<vscale::MetricsRegistry>();
  }
  const vscale::Observers obs{tracer.get(), stall.get(), nullptr, metrics.get()};

  std::printf("vScale quickstart: NPB '%s' on a %d-vCPU VM, 2 vCPUs per pCPU\n\n",
              app.c_str(), vcpus);

  vscale::StateDigest digest;
  vscale::StateDigest* d = want_digest ? &digest : nullptr;
  const RunOutcome base =
      RunOnce(vscale::Policy::kBaseline, app, vcpus, 42, d, faults, obs);
  const RunOutcome vs = RunOnce(vscale::Policy::kVscale, app, vcpus, 42, d, faults, obs);

  // Export observability artifacts before printing the comparison: the two runs sit
  // back to back on one timeline (the tracer rebases the second run's timestamps).
  if (tracer != nullptr) {
    std::string error;
    if (vscale::WriteChromeTraceFile(*tracer, trace_path, &error)) {
      std::printf("trace: wrote %zu events to %s (%llu dropped by ring) — open in "
                  "ui.perfetto.dev\n",
                  tracer->size(), trace_path.c_str(),
                  static_cast<unsigned long long>(tracer->dropped()));
    } else {
      std::fprintf(stderr, "trace: %s\n", error.c_str());
    }
  }
  if (!metrics_path.empty()) {
    std::ofstream f(metrics_path);
    if (f) {
      metrics->WriteCsv(f);
      std::printf("metrics: wrote %zu metrics to %s\n", metrics->size(),
                  metrics_path.c_str());
    } else {
      std::fprintf(stderr, "metrics: cannot open %s\n", metrics_path.c_str());
    }
  }

  if (!stall_csv_path.empty()) {
    std::ofstream f(stall_csv_path);
    if (f) {
      stall->WriteCsv(f);
      std::printf("stall: wrote bucket time series for both runs to %s — "
                  "summarize with tools/stall_report\n",
                  stall_csv_path.c_str());
    } else {
      std::fprintf(stderr, "stall: cannot open %s\n", stall_csv_path.c_str());
    }
  }

  if (want_digest) {
    // End-of-run registry state folds in, so metric drift also changes the digest.
    digest.AbsorbRegistry(*metrics);
    std::printf("digest %s\n", digest.Hex().c_str());
  }

  vscale::TextTable table({"config", "exec time (s)", "VM wait (s)", "vIPIs/s/vCPU"});
  table.AddRow({"Xen/Linux", vscale::TextTable::Num(vscale::ToSeconds(base.duration), 3),
                vscale::TextTable::Num(vscale::ToSeconds(base.wait), 3),
                vscale::TextTable::Num(base.ipi_rate, 1)});
  table.AddRow({"vScale", vscale::TextTable::Num(vscale::ToSeconds(vs.duration), 3),
                vscale::TextTable::Num(vscale::ToSeconds(vs.wait), 3),
                vscale::TextTable::Num(vs.ipi_rate, 1)});
  table.Print();

  if (!faults.empty()) {
    std::printf("\nfault plan (%zu events, vScale run only): %lld injected; "
                "daemon: %lld read retries, %lld stale-held cycles, %lld "
                "degradations, %lld resumes, %lld crashes, %lld restarts; "
                "watchdog: %lld trips; end state: %s\n",
                faults.events.size(),
                static_cast<long long>(vs.faults_started),
                static_cast<long long>(vs.read_retries),
                static_cast<long long>(vs.stale_held),
                static_cast<long long>(vs.degradations),
                static_cast<long long>(vs.resumes),
                static_cast<long long>(vs.crashes),
                static_cast<long long>(vs.restarts),
                static_cast<long long>(vs.watchdog_trips),
                vs.degraded_at_end ? "DEGRADED" : "healthy");
  }

  if (!base.finished || !vs.finished) {
    std::printf("\nWARNING: a run hit the simulation deadline without finishing\n");
    return 1;
  }
  const double speedup = 1.0 - static_cast<double>(vs.duration) /
                                   static_cast<double>(base.duration);
  std::printf("\nvScale reduced execution time by %.1f%% and waiting time by %.1f%%\n",
              100.0 * speedup,
              100.0 * (1.0 - static_cast<double>(vs.wait) /
                                 static_cast<double>(base.wait)));
  return 0;
}
