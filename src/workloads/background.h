// Background workloads: the bursty "photo-slideshow" virtual desktops the paper uses
// to generate fluctuating pCPU availability (section 5.2.1), and a kernel-build-like
// parallel job used for the Table 2 quiescence experiment.

#ifndef VSCALE_SRC_WORKLOADS_BACKGROUND_H_
#define VSCALE_SRC_WORKLOADS_BACKGROUND_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/guest/kernel.h"
#include "src/guest/thread.h"

namespace vscale {

// The machine-wide availability process the paper's co-located desktops create: their
// bursts overlap into episodes where the pool is saturated ("crunch") separated by
// windows where most desktops think ("quiet"). Desktops sharing a schedule dwell
// during quiet phases and slideshow continuously during crunches; phase lengths are
// exponential, so the aggregate looks like a two-state Markov-modulated load — the
// canonical model for such on/off interference.
class LoadPhaseSchedule {
 public:
  LoadPhaseSchedule(TimeNs crunch_mean, TimeNs quiet_mean, uint64_t seed)
      : crunch_mean_(crunch_mean), quiet_mean_(quiet_mean), rng_(seed) {}

  // True if `now` falls in a crunch phase. Lazily extends the schedule.
  bool InCrunch(TimeNs now);
  // The time the current phase (containing `now`) ends.
  TimeNs PhaseEnd(TimeNs now);

 private:
  void ExtendTo(TimeNs now);

  TimeNs crunch_mean_;
  TimeNs quiet_mean_;
  Rng rng_;
  TimeNs phase_start_ = 0;
  TimeNs phase_end_ = 0;
  bool in_crunch_ = false;  // the schedule starts quiet
};

// An interactive desktop VM: mostly idle, with correlated CPU spikes when a slide
// opens — the decode parallelizes across both vCPUs at once, so a desktop's demand is
// either ~0 or ~2 pCPUs, the bimodal pattern that makes pCPU availability fluctuate.
class SlideshowDesktop {
 public:
  // `phases` is optional (may be nullptr): with a schedule attached the desktop
  // follows the machine-wide crunch/quiet process; without one it free-runs on its
  // own slide pacing.
  SlideshowDesktop(GuestKernel& kernel, uint64_t seed,
                   LoadPhaseSchedule* phases = nullptr);
  ~SlideshowDesktop();

  SlideshowDesktop(const SlideshowDesktop&) = delete;
  SlideshowDesktop& operator=(const SlideshowDesktop&) = delete;

  void Start();
  int64_t slides_shown() const { return slides_shown_; }

 private:
  class ViewerBody;

  GuestKernel& kernel_;
  Rng rng_;
  LoadPhaseSchedule* phases_;
  std::vector<std::unique_ptr<ViewerBody>> bodies_;
  int64_t slides_shown_ = 0;
  bool started_ = false;
};

// A make-style parallel build: a coordinator hands compilation units to jobs through a
// condvar; completions wake the coordinator — a steady, moderate IPI source. Runs
// until the simulation stops.
class KernelBuild {
 public:
  KernelBuild(GuestKernel& kernel, uint64_t seed);
  ~KernelBuild();

  KernelBuild(const KernelBuild&) = delete;
  KernelBuild& operator=(const KernelBuild&) = delete;

  void Start();
  int64_t units_built() const { return units_built_; }

 private:
  class JobBody;
  class HelperBody;

  void SpawnHelper();

  GuestKernel& kernel_;
  Rng rng_;
  int fs_mutex_ = -1;  // shared filesystem lock touched per unit
  std::vector<std::unique_ptr<JobBody>> bodies_;
  std::vector<std::unique_ptr<HelperBody>> helpers_;
  int64_t units_built_ = 0;
  bool started_ = false;
};

}  // namespace vscale

#endif  // VSCALE_SRC_WORKLOADS_BACKGROUND_H_
