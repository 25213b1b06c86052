// trace_lint: validates exported Chrome trace JSON without any Python/JS tooling.
//
//   trace_lint <trace.json> [--min-categories N] [--min-domains N]
//       Parses the file and checks the structural invariants (well-formed JSON,
//       per-track monotonic timestamps, balanced B/E slices); optionally requires
//       at least N distinct categories / domain processes.
//
//   trace_lint --selftest
//       Runs a miniature consolidated testbed with tracing enabled, exports the
//       trace in memory, and validates it end to end (the ctest entry). Requires
//       events from all four layers (sim, hypervisor, guest, vscale) across at
//       least two domains. Prints "skipped" and exits 0 when the binary was built
//       with -DVSCALE_TRACE=OFF.
//
//   trace_lint --stall-selftest
//       Same miniature testbed with stall attribution ALSO enabled: validates
//       the exported trace (which now exercises the counter-track rules —
//       finite values, stall_* monotone per pid) and requires the eight
//       StallAccountant bucket counter tracks to be present.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "src/base/parse.h"
#include "src/base/trace.h"
#include "src/metrics/trace_export.h"
#include "src/metrics/trace_validate.h"
#include "src/obs/stall_accounting.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/testbed.h"

namespace {

int Lint(const std::string& json, size_t min_categories, size_t min_domains,
         const char* label) {
  std::string error;
  vscale::TraceStats stats;
  if (!vscale::ValidateChromeTrace(json, &error, &stats)) {
    std::fprintf(stderr, "trace_lint: %s: INVALID: %s\n", label, error.c_str());
    return 1;
  }
  if (stats.categories.size() < min_categories) {
    std::fprintf(stderr,
                 "trace_lint: %s: only %zu categories (need >= %zu)\n", label,
                 stats.categories.size(), min_categories);
    return 1;
  }
  if (stats.domain_pids.size() < min_domains) {
    std::fprintf(stderr, "trace_lint: %s: only %zu domains (need >= %zu)\n",
                 label, stats.domain_pids.size(), min_domains);
    return 1;
  }
  std::printf(
      "trace_lint: %s: OK (%zu events, %zu categories, %zu tracks, %zu domains)\n",
      label, stats.events, stats.categories.size(), stats.tracks.size(),
      stats.domain_pids.size());
  return 0;
}

int SelfTest(bool stall) {
#if !VSCALE_TRACE
  (void)stall;
  std::printf("trace_lint: selftest skipped (built with VSCALE_TRACE=OFF)\n");
  return 0;
#else
  using namespace vscale;
  const char* label = stall ? "stall-selftest" : "selftest";
  GlobalTracer().Clear();
  GlobalTracer().Enable();

  {
    TestbedConfig cfg;
    cfg.policy = Policy::kVscale;
    cfg.primary_vcpus = 4;
    cfg.pool_pcpus = 4;   // small but contended: 2 desktops keep it consolidated
    cfg.seed = 7;
    cfg.stall_accounting = stall;
    Testbed bed(cfg);
    OmpAppConfig app_cfg = NpbProfile("lu", cfg.primary_vcpus, kSpinCountActive);
    app_cfg.intervals = 40;  // a short run: enough for ticks + freezes to fire
    OmpApp app(bed.primary(), app_cfg, 77);
    bed.sim().RunUntil(Milliseconds(200));
    app.Start();
    bed.RunUntil([&] { return app.done(); }, Seconds(60));
  }

  GlobalTracer().Disable();
  std::ostringstream os;
  WriteChromeTrace(GlobalTracer(), os);
  const int rc = Lint(os.str(), /*min_categories=*/4, /*min_domains=*/2, label);
  if (rc != 0 || !stall) {
    return rc;
  }

  // The stall run must have produced every bucket's counter track (validation
  // above already proved them finite and monotone per pid).
  std::string error;
  TraceStats stats;
  if (!ValidateChromeTrace(os.str(), &error, &stats)) {
    std::fprintf(stderr, "trace_lint: %s: INVALID: %s\n", label, error.c_str());
    return 1;
  }
  static const char* kStallTracks[] = {
      "stall_running_ns", "stall_runnable_ns", "stall_lhp_ns",
      "stall_futex_ns",   "stall_ipi_ns",      "stall_frozen_ns",
      "stall_stolen_ns",  "stall_idle_ns",
  };
  int missing = 0;
  for (const char* track : kStallTracks) {
    if (stats.counter_names.count(track) == 0) {
      std::fprintf(stderr, "trace_lint: %s: missing counter track %s\n", label,
                   track);
      ++missing;
    }
  }
  if (missing != 0) {
    return 1;
  }
  if (StallAccountant::Global().exhaustive_failures() != 0) {
    std::fprintf(stderr, "trace_lint: %s: stall bucket decomposition was not "
                         "exhaustive\n", label);
    return 1;
  }
  std::printf("trace_lint: %s: %zu counter events across %zu tracks, all 8 "
              "stall buckets present\n",
              label, stats.counters, stats.counter_names.size());
  return 0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--selftest") == 0) {
    return SelfTest(/*stall=*/false);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--stall-selftest") == 0) {
    return SelfTest(/*stall=*/true);
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: trace_lint <trace.json> [--min-categories N] "
                 "[--min-domains N] | trace_lint --selftest | "
                 "trace_lint --stall-selftest\n");
    return 2;
  }
  size_t min_categories = 0;
  size_t min_domains = 0;
  for (int i = 2; i < argc; ++i) {
    const bool categories = std::strcmp(argv[i], "--min-categories") == 0;
    if ((categories || std::strcmp(argv[i], "--min-domains") == 0) && i + 1 < argc) {
      uint64_t n = 0;
      if (!vscale::ParseU64(argv[++i], &n)) {
        std::fprintf(stderr, "trace_lint: %s wants a count, got '%s'\n", argv[i - 1],
                     argv[i]);
        return 2;
      }
      (categories ? min_categories : min_domains) = static_cast<size_t>(n);
    } else {
      std::fprintf(stderr, "trace_lint: unknown option '%s'\n", argv[i]);
      return 2;
    }
  }
  std::ifstream f(argv[1]);
  if (!f) {
    std::fprintf(stderr, "trace_lint: cannot open %s\n", argv[1]);
    return 1;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return Lint(buf.str(), min_categories, min_domains, argv[1]);
}
