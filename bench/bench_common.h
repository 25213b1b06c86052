// Shared helpers for the figure benches: environment-driven sizing so quick local
// iterations (VSCALE_BENCH_SEEDS=1) and thorough regenerations (=3, the paper's
// three-run averages) use the same binaries.

#ifndef VSCALE_BENCH_BENCH_COMMON_H_
#define VSCALE_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/base/metrics_registry.h"
#include "src/base/observers.h"
#include "src/base/parse.h"
#include "src/base/table.h"
#include "src/base/trace.h"
#include "src/metrics/state_digest.h"
#include "src/metrics/trace_export.h"
#include "src/obs/stall_accounting.h"
#include "src/workloads/campaign.h"
#include "src/workloads/testbed.h"

namespace vscale {

// Opt-in observation for a bench binary: construct one at the top of main() and
// attach observers() to every TestbedConfig and bare MachineConfig the bench
// builds; the sinks are exported on destruction.
//
//   bench_fig9_waiting_time --trace fig9.trace.json --metrics fig9.csv
//
// Only the sinks the flags ask for are built — a tracer for --trace, a registry
// for --metrics or --digest, an accountant for --stall — so with none given the
// runs observe nothing and are bit-identical to an unobserved binary. See
// docs/OBSERVABILITY.md.
//
// --digest prints the 64-bit FNV-1a digest of the run's end state — every
// published metric, plus the recorded event count when tracing — on exit.
// Re-running the same bench command must reprint the same digest;
// docs/CHECKING.md describes the double-run determinism check built on this.
//
// --stall attaches stall attribution to every observed Testbed; --stall-csv
// <path> also dumps the bucket time series for tools/stall_report on
// destruction. A path flag given without its path is a usage error (exit 2).
class BenchTraceScope {
 public:
  BenchTraceScope(int argc, char** argv) {
    bool want_stall = false;
    for (int i = 1; i < argc; ++i) {
      const bool path_flag = std::strcmp(argv[i], "--trace") == 0 ||
                             std::strcmp(argv[i], "--metrics") == 0 ||
                             std::strcmp(argv[i], "--stall-csv") == 0;
      if (path_flag && i + 1 >= argc) {
        std::fprintf(stderr,
                     "usage: %s [--trace out.json] [--metrics out.csv] "
                     "[--digest] [--stall] [--stall-csv out.csv]\n"
                     "%s requires a path\n",
                     argv[0], argv[i]);
        std::exit(2);
      }
      if (std::strcmp(argv[i], "--trace") == 0) {
        trace_path_ = argv[++i];
      } else if (std::strcmp(argv[i], "--metrics") == 0) {
        metrics_path_ = argv[++i];
      } else if (std::strcmp(argv[i], "--stall-csv") == 0) {
        stall_csv_path_ = argv[++i];
      } else if (std::strcmp(argv[i], "--digest") == 0) {
        want_digest_ = true;
      } else if (std::strcmp(argv[i], "--stall") == 0) {
        want_stall = true;
      }
    }
    if (!trace_path_.empty()) {
      tracer_ = std::make_unique<Tracer>();
    }
    if (want_stall || !stall_csv_path_.empty()) {
      stall_ = std::make_unique<StallAccountant>();
    }
    if (!metrics_path_.empty() || want_digest_) {
      metrics_ = std::make_unique<MetricsRegistry>();
    }
  }

  ~BenchTraceScope() {
    if (tracer_ != nullptr) {
      std::string error;
      if (WriteChromeTraceFile(*tracer_, trace_path_, &error)) {
        std::printf("trace: wrote %zu events to %s (%llu dropped by ring)\n",
                    tracer_->size(), trace_path_.c_str(),
                    static_cast<unsigned long long>(tracer_->dropped()));
      } else {
        std::fprintf(stderr, "trace: %s\n", error.c_str());
      }
    }
    if (!metrics_path_.empty()) {
      std::ofstream f(metrics_path_);
      if (f) {
        metrics_->WriteCsv(f);
        std::printf("metrics: wrote %zu metrics to %s\n", metrics_->size(),
                    metrics_path_.c_str());
      } else {
        std::fprintf(stderr, "metrics: cannot open %s\n", metrics_path_.c_str());
      }
    }
    if (!stall_csv_path_.empty()) {
      std::ofstream f(stall_csv_path_);
      if (f) {
        stall_->WriteCsv(f);
        std::printf("stall: wrote bucket time series to %s\n",
                    stall_csv_path_.c_str());
      } else {
        std::fprintf(stderr, "stall: cannot open %s\n", stall_csv_path_.c_str());
      }
    }
    if (want_digest_) {
      StateDigest digest;
      digest.AbsorbRegistry(*metrics_);
      if (tracer_ != nullptr) {
        digest.Absorb(static_cast<uint64_t>(tracer_->size()));
      }
      std::printf("digest %s\n", digest.Hex().c_str());
    }
  }

  BenchTraceScope(const BenchTraceScope&) = delete;
  BenchTraceScope& operator=(const BenchTraceScope&) = delete;

  // The sinks the flags asked for; null members are observers left off.
  Observers observers() const {
    return {tracer_.get(), stall_.get(), nullptr, metrics_.get()};
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string stall_csv_path_;
  bool want_digest_ = false;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<StallAccountant> stall_;
  std::unique_ptr<MetricsRegistry> metrics_;
};

// VSCALE_BENCH_SEEDS picks how many of the five bench seeds each cell runs:
// unset means 1, anything but an integer in 1..5 is a usage error (exit 2).
inline std::vector<uint64_t> BenchSeeds() {
  static const uint64_t kSeeds[] = {42, 137, 999, 2024, 5150};
  int64_t n = 1;
  if (const char* env = std::getenv("VSCALE_BENCH_SEEDS")) {
    if (!ParseI64(env, &n) || n < 1 || n > 5) {
      std::fprintf(stderr, "VSCALE_BENCH_SEEDS wants an integer in 1..5, got '%s'\n",
                   env);
      std::exit(2);
    }
  }
  return std::vector<uint64_t>(kSeeds, kSeeds + n);
}

inline CampaignConfig MakeCampaign(int vcpus) {
  CampaignConfig cfg;
  cfg.vcpus = vcpus;
  cfg.seeds = BenchSeeds();
  return cfg;
}

// Prints a normalized-execution-time figure: one row per app, one column per policy.
inline void PrintNormalizedFigure(const std::string& title,
                                  const std::vector<CellResult>& cells,
                                  const std::vector<Policy>& policies) {
  std::printf("%s\n", title.c_str());
  std::vector<std::string> headers = {"app"};
  for (Policy p : policies) {
    headers.push_back(ToString(p));
  }
  TextTable table(headers);
  std::vector<std::string> apps;
  for (const auto& c : cells) {
    bool seen = false;
    for (const auto& a : apps) {
      if (a == c.app) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      apps.push_back(c.app);
    }
  }
  for (const auto& app : apps) {
    std::vector<std::string> row = {app};
    for (Policy p : policies) {
      double norm = 0.0;
      for (const auto& c : cells) {
        if (c.app == app && c.policy == p) {
          norm = Normalized(cells, c);
          break;
        }
      }
      row.push_back(TextTable::Num(norm, 2));
    }
    table.AddRow(row);
  }
  table.Print();
}

}  // namespace vscale

#endif  // VSCALE_BENCH_BENCH_COMMON_H_
