// The paper's future-work direction (section 7): let applications themselves see the
// VM's real computing power and adapt their policy decisions.
//
// AdaptiveApp is a work-stealing chunk processor whose worker team resizes with the
// number of online vCPUs: surplus workers park on a condvar instead of oversubscribing
// packed vCPUs, and wake when vScale unfreezes capacity. Compare with a fixed team of
// the same size (adaptive=false) to quantify the benefit — `bench_repro --figure
// ablation_adaptive_app` runs both.

#ifndef VSCALE_SRC_WORKLOADS_ADAPTIVE_APP_H_
#define VSCALE_SRC_WORKLOADS_ADAPTIVE_APP_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/guest/kernel.h"
#include "src/guest/thread.h"

namespace vscale {

struct AdaptiveAppConfig {
  std::string name = "adaptive";
  int64_t chunks = 2000;
  TimeNs chunk_mean = Milliseconds(2);
  // true: workers beyond the online-vCPU count park between chunks.
  bool adaptive = true;
};

class AdaptiveApp {
 public:
  AdaptiveApp(GuestKernel& kernel, AdaptiveAppConfig config, uint64_t seed);
  ~AdaptiveApp();

  AdaptiveApp(const AdaptiveApp&) = delete;
  AdaptiveApp& operator=(const AdaptiveApp&) = delete;

  void Start();

  bool done() const { return done_; }
  TimeNs duration() const { return done_ ? finish_time_ - start_time_ : 0; }
  int64_t chunks_done() const { return chunks_done_; }
  int64_t parks() const { return parks_; }

 private:
  class Worker;

  void OnWorkerExit();

  GuestKernel& kernel_;
  AdaptiveAppConfig config_;
  Rng rng_;
  int gate_mutex_ = -1;
  int gate_cond_ = -1;
  int64_t chunks_claimed_ = 0;
  int64_t chunks_done_ = 0;
  int64_t parks_ = 0;
  int parked_workers_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<GuestThread*> worker_threads_;
  int live_workers_ = 0;
  bool started_ = false;
  bool done_ = false;
  TimeNs start_time_ = 0;
  TimeNs finish_time_ = 0;
};

}  // namespace vscale

#endif  // VSCALE_SRC_WORKLOADS_ADAPTIVE_APP_H_
