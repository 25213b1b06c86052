// OpenMP-style fork-join workload model and the NPB-OMP 3.3 application profiles.
//
// Each app is `threads` workers iterating { compute(grain +/- imbalance) ; barrier }.
// The barrier is GOMP's spin-then-futex wait: threads spin for GOMP_SPINCOUNT loop
// iterations (budget = count * per-check cost) before futex-sleeping. `lu` additionally
// synchronizes through an ad-hoc user-level spin pipeline (SSOR wavefront), which is
// beyond OpenMP's wait-policy control — exactly the behaviour the paper highlights.
//
// Profiles are calibrated so that (a) relative synchronization intensity across the ten
// kernels matches the paper's Figure 10 IPI profile and (b) dedicated-run durations are
// a few virtual seconds, keeping full-campaign simulations tractable.

#ifndef VSCALE_SRC_WORKLOADS_OMP_APP_H_
#define VSCALE_SRC_WORKLOADS_OMP_APP_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/guest/kernel.h"
#include "src/guest/thread.h"

namespace vscale {

// GOMP_SPINCOUNT presets (paper section 5.2.2).
inline constexpr int64_t kSpinCountActive = 30'000'000'000;  // OMP_WAIT_POLICY=ACTIVE
inline constexpr int64_t kSpinCountDefault = 300'000;        // policy undefined
inline constexpr int64_t kSpinCountPassive = 0;              // OMP_WAIT_POLICY=PASSIVE

struct OmpAppConfig {
  std::string name;
  int threads = 4;
  int64_t intervals = 1000;     // compute/barrier intervals per thread
  TimeNs grain_mean = Milliseconds(3);
  double imbalance = 0.1;       // per-interval grain in grain*(1 +/- U[0,imbalance])
  int64_t spin_count = kSpinCountDefault;
  bool adhoc_pipeline = false;  // lu: spin-flag wavefront between neighbours
  int barrier_every = 1;        // barrier every N intervals (pipeline apps sync less)
};

// The ten NPB kernels, sized for `threads` workers. `spin_count` is filled from the
// caller's wait policy except where an app pins its own behaviour (lu's ad-hoc spin).
std::vector<OmpAppConfig> NpbSuite(int threads, int64_t spin_count);
// A single named NPB profile ("bt", "cg", ...). Aborts on unknown names.
OmpAppConfig NpbProfile(const std::string& name, int threads, int64_t spin_count);
// Whether `name` is one of the ten NPB profiles. Callers that accept app names
// from untrusted text (scenario files) must gate on this: NpbProfile's unknown-
// name assert vanishes in Release builds.
bool IsNpbProfileName(const std::string& name);

class OmpApp {
 public:
  OmpApp(GuestKernel& kernel, OmpAppConfig config, uint64_t seed);
  ~OmpApp();

  OmpApp(const OmpApp&) = delete;
  OmpApp& operator=(const OmpApp&) = delete;

  // Spawns the worker team. Call once.
  void Start();

  bool done() const { return done_; }
  TimeNs duration() const { return done_ ? finish_time_ - start_time_ : 0; }
  const OmpAppConfig& config() const { return config_; }

 private:
  class Worker;

  void OnWorkerExit();

  GuestKernel& kernel_;
  OmpAppConfig config_;
  Rng rng_;
  int barrier_ = -1;
  std::vector<int> pipeline_flags_;  // lu: one flag per thread boundary
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<GuestThread*> worker_threads_;
  int live_workers_ = 0;
  bool started_ = false;
  bool done_ = false;
  TimeNs start_time_ = 0;
  TimeNs finish_time_ = 0;
};

}  // namespace vscale

#endif  // VSCALE_SRC_WORKLOADS_OMP_APP_H_
