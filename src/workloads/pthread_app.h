// Pthread-style workload model and the PARSEC 3.0 application profiles.
//
// Workers iterate { parallel compute ; short critical section under a shared mutex },
// optionally punctuated by a condvar-built stage barrier (streamcluster's pattern) and
// by kernel work under a shared mm-semaphore-like lock (dedup's address-space
// pressure). All blocking goes through futex sleep-then-wakeup, so synchronization
// latency is dominated by reschedule-IPI delivery — Figure 1(b) of the paper.
//
// Profiles are calibrated so per-vCPU IPI rates rank like the paper's Figure 13
// (dedup ~940/s standing out, streamcluster ~183/s, swaptions ~0).

#ifndef VSCALE_SRC_WORKLOADS_PTHREAD_APP_H_
#define VSCALE_SRC_WORKLOADS_PTHREAD_APP_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/guest/kernel.h"
#include "src/guest/thread.h"

namespace vscale {

struct PthreadAppConfig {
  std::string name;
  int threads = 4;
  int64_t intervals = 1000;       // per thread
  TimeNs grain_mean = Milliseconds(2);
  double imbalance = 0.15;
  double cs_fraction = 0.0;       // fraction of the grain inside the shared mutex
  int stage_every = 0;            // condvar stage barrier every N intervals (0 = never)
  TimeNs mm_section = 0;          // kernel work under the shared mm lock per interval
  bool uses_openmp = false;       // freqmine: spin-then-futex barrier instead of mutex
  int64_t spin_count = 300'000;   // only for uses_openmp
};

std::vector<PthreadAppConfig> ParsecSuite(int threads);
PthreadAppConfig ParsecProfile(const std::string& name, int threads);

class PthreadApp {
 public:
  PthreadApp(GuestKernel& kernel, PthreadAppConfig config, uint64_t seed);
  ~PthreadApp();

  PthreadApp(const PthreadApp&) = delete;
  PthreadApp& operator=(const PthreadApp&) = delete;

  void Start();

  bool done() const { return done_; }
  TimeNs duration() const { return done_ ? finish_time_ - start_time_ : 0; }
  const PthreadAppConfig& config() const { return config_; }

 private:
  class Worker;

  void OnWorkerExit();

  GuestKernel& kernel_;
  PthreadAppConfig config_;
  Rng rng_;
  int mutex_ = -1;        // the shared work mutex
  int stage_mutex_ = -1;  // condvar stage barrier state
  int stage_cond_ = -1;
  int stage_arrived_ = 0;
  int64_t stage_generation_ = 0;
  int mm_lock_ = -1;
  int omp_barrier_ = -1;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<GuestThread*> worker_threads_;
  int live_workers_ = 0;
  bool started_ = false;
  bool done_ = false;
  TimeNs start_time_ = 0;
  TimeNs finish_time_ = 0;
};

}  // namespace vscale

#endif  // VSCALE_SRC_WORKLOADS_PTHREAD_APP_H_
