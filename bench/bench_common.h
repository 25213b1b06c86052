// BenchTraceScope: the command line and the opt-in observers of the bench
// binaries (bench_repro, bench_antagonist, bench_chaos_recovery).

#ifndef VSCALE_BENCH_BENCH_COMMON_H_
#define VSCALE_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/metrics_registry.h"
#include "src/base/observers.h"
#include "src/base/trace.h"
#include "src/metrics/state_digest.h"
#include "src/metrics/trace_export.h"
#include "src/obs/stall_accounting.h"

namespace vscale {

// Opt-in observation for a bench binary: construct one at the top of main() and
// attach observers() to every TestbedConfig and bare MachineConfig the bench
// builds; the sinks are exported on destruction.
//
//   bench_repro --figure fig9 --trace fig9.trace.json --metrics fig9.csv
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
// destruction.
//
// `own_flags` are the binary's own flags as its usage line spells them:
// "--check" is a switch, "--figure NAME" takes a value; values() reads what was
// given. Any other argument, and a flag without its value, is a usage error
// (exit 2).
class BenchTraceScope {
 public:
  BenchTraceScope(int argc, char** argv, std::vector<std::string> own_flags = {})
      : program_(argv[0]), own_flags_(std::move(own_flags)) {
    bool want_stall = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::string* own = nullptr;
      for (const std::string& f : own_flags_) {
        if (f.substr(0, f.find(' ')) == arg) {
          own = &f;
        }
      }
      const bool takes_value =
          arg == "--trace" || arg == "--metrics" || arg == "--stall-csv" ||
          (own != nullptr && own->find(' ') != std::string::npos);
      if (takes_value && i + 1 >= argc) {
        Usage(arg + " requires a value");
      }
      if (arg == "--trace") {
        trace_path_ = argv[++i];
      } else if (arg == "--metrics") {
        metrics_path_ = argv[++i];
      } else if (arg == "--stall-csv") {
        stall_csv_path_ = argv[++i];
      } else if (arg == "--digest") {
        want_digest_ = true;
      } else if (arg == "--stall") {
        want_stall = true;
      } else if (own != nullptr) {
        given_.emplace_back(arg, takes_value ? argv[++i] : "");
      } else {
        Usage("unknown argument '" + arg + "'");
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

  // The values given to the own flag `flag`, in order; a switch gives "".
  std::vector<std::string> values(const std::string& flag) const {
    std::vector<std::string> out;
    for (const auto& [f, value] : given_) {
      if (f == flag) {
        out.push_back(value);
      }
    }
    return out;
  }

  // Prints the usage line and `why` to stderr and exits 2.
  [[noreturn]] void Usage(const std::string& why) const {
    std::string line = "usage: " + program_;
    for (const std::string& f : own_flags_) {
      line += " [" + f + "]";
    }
    std::fprintf(stderr,
                 "%s [--trace out.json] [--metrics out.csv] [--digest] [--stall] "
                 "[--stall-csv out.csv]\n%s\n",
                 line.c_str(), why.c_str());
    std::exit(2);
  }

 private:
  std::string program_;
  std::vector<std::string> own_flags_;
  std::vector<std::pair<std::string, std::string>> given_;  // own flag, value
  std::string trace_path_;
  std::string metrics_path_;
  std::string stall_csv_path_;
  bool want_digest_ = false;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<StallAccountant> stall_;
  std::unique_ptr<MetricsRegistry> metrics_;
};

}  // namespace vscale

#endif  // VSCALE_BENCH_BENCH_COMMON_H_
