#include "src/workloads/background.h"

#include <cassert>

namespace vscale {

namespace {

// Closed-loop interactive model: decode a slide (burst of CPU on both vCPUs), then
// think before the next one. The think gap persists no matter how contended the
// decode was — which keeps the desktops' credit balances topped up, so every slide
// arrival is a BOOST-priority preemption of whoever holds the pCPU. That burst-
// preempt-burst pattern is precisely the interference the paper's primary VM
// suffers from.
constexpr int kSlideshowThreads = 2;  // decode fans out over the desktop's two vCPUs
constexpr TimeNs kBurstMean = MillisecondsF(700);    // decode + render one 2802x1849 jpeg
constexpr TimeNs kBurstStddev = MillisecondsF(140);  // per-thread; both vCPUs decode together
constexpr TimeNs kThinkMean = MillisecondsF(120);    // auto-advance gap (exponential)
constexpr TimeNs kThinkFloor = MillisecondsF(40);

// The Table 2 kernel build.
constexpr int kBuildJobs = 8;                          // make -jN
constexpr TimeNs kUnitMean = MillisecondsF(55);        // one compilation unit (cc1)
constexpr double kUnitImbalance = 0.5;
// Each unit forks a short-lived assembler/linker helper; the fork placement is
// what generates the steady ~20 reschedule IPIs/s/vCPU of the paper's Table 2.
constexpr TimeNs kHelperMean = MillisecondsF(8);

}  // namespace

// ---------------------------------------------------------------------------
// SlideshowDesktop
// ---------------------------------------------------------------------------

bool LoadPhaseSchedule::InCrunch(TimeNs now) {
  ExtendTo(now);
  return in_crunch_;
}

TimeNs LoadPhaseSchedule::PhaseEnd(TimeNs now) {
  ExtendTo(now);
  return phase_end_;
}

void LoadPhaseSchedule::ExtendTo(TimeNs now) {
  while (phase_end_ <= now) {
    phase_start_ = phase_end_;
    in_crunch_ = !in_crunch_;
    const TimeNs mean = in_crunch_ ? crunch_mean_ : quiet_mean_;
    phase_end_ = phase_start_ +
                 std::max<TimeNs>(Milliseconds(100), rng_.ExponentialTime(mean));
  }
}

class SlideshowDesktop::ViewerBody : public ThreadBody {
 public:
  ViewerBody(SlideshowDesktop& desktop, Rng rng) : desktop_(desktop), rng_(rng) {}

  Op Next(GuestKernel& kernel, GuestThread& thread) override {
    (void)thread;
    const TimeNs now = kernel.NowNs();
    if (bursting_) {
      bursting_ = false;
      ++desktop_.slides_shown_;
      TimeNs think = kThinkFloor + rng_.ExponentialTime(kThinkMean);
      if (desktop_.phases_ != nullptr && !desktop_.phases_->InCrunch(now)) {
        // Quiet phase: the user dwells on this photo until the phase ends (jittered
        // so the desktops do not wake in lockstep).
        think = std::max(think, desktop_.phases_->PhaseEnd(now) - now +
                                    rng_.UniformTime(0, Milliseconds(120)));
      }
      return Op::Sleep(think);
    }
    bursting_ = true;
    const TimeNs burst = rng_.NormalTime(kBurstMean, kBurstStddev);
    return Op::Compute(std::max<TimeNs>(Milliseconds(20), burst));
  }

 private:
  SlideshowDesktop& desktop_;
  Rng rng_;
  bool bursting_ = false;
};

SlideshowDesktop::SlideshowDesktop(GuestKernel& kernel, uint64_t seed,
                                   LoadPhaseSchedule* phases)
    : kernel_(kernel), rng_(seed), phases_(phases) {}

SlideshowDesktop::~SlideshowDesktop() = default;

void SlideshowDesktop::Start() {
  assert(!started_);
  started_ = true;
  for (int i = 0; i < kSlideshowThreads; ++i) {
    bodies_.push_back(std::make_unique<ViewerBody>(*this, rng_.Fork(300 + i)));
    kernel_.Spawn("slideshow/" + std::to_string(i), bodies_.back().get());
  }
}

// ---------------------------------------------------------------------------
// KernelBuild
// ---------------------------------------------------------------------------

// A short-lived assembler/linker process forked per compilation unit.
class KernelBuild::HelperBody : public ThreadBody {
 public:
  HelperBody(TimeNs work) : work_(work) {}

  Op Next(GuestKernel& kernel, GuestThread& thread) override {
    (void)kernel;
    (void)thread;
    if (done_) {
      return Op::Exit();
    }
    done_ = true;
    return Op::Compute(work_);
  }

 private:
  TimeNs work_;
  bool done_ = false;
};

class KernelBuild::JobBody : public ThreadBody {
 public:
  JobBody(KernelBuild& build, Rng rng) : build_(build), rng_(rng) {}

  Op Next(GuestKernel& kernel, GuestThread& thread) override {
    (void)kernel;
    (void)thread;
    switch (phase_) {
      case Phase::kCompile: {
        ++build_.units_built_;
        phase_ = Phase::kFsLock;
        const double skew = rng_.UniformReal(-kUnitImbalance, kUnitImbalance);
        const TimeNs unit = static_cast<TimeNs>(
            static_cast<double>(kUnitMean) * (1.0 + skew));
        return Op::Compute(std::max<TimeNs>(Milliseconds(5), unit));
      }
      case Phase::kFsLock:
        phase_ = Phase::kFsWrite;
        return Op::MutexLock(build_.fs_mutex_);
      case Phase::kFsWrite:
        phase_ = Phase::kFsUnlock;
        return Op::Compute(Microseconds(60));  // write the .o, touch metadata
      case Phase::kFsUnlock:
        phase_ = Phase::kPause;
        // Fork the assembler for the unit just compiled (reschedule-IPI source).
        build_.SpawnHelper();
        return Op::MutexUnlock(build_.fs_mutex_);
      case Phase::kPause:
        phase_ = Phase::kCompile;
        // Brief blocking gap (pipe to make's jobserver).
        return Op::Sleep(Microseconds(500));
    }
    return Op::Exit();
  }

 private:
  enum class Phase { kCompile, kFsLock, kFsWrite, kFsUnlock, kPause };
  KernelBuild& build_;
  Rng rng_;
  Phase phase_ = Phase::kCompile;
};

KernelBuild::KernelBuild(GuestKernel& kernel, uint64_t seed)
    : kernel_(kernel), rng_(seed) {}

KernelBuild::~KernelBuild() = default;

void KernelBuild::Start() {
  assert(!started_);
  started_ = true;
  fs_mutex_ = kernel_.CreateMutex();
  for (int i = 0; i < kBuildJobs; ++i) {
    bodies_.push_back(std::make_unique<JobBody>(*this, rng_.Fork(400 + i)));
    kernel_.Spawn("cc1/" + std::to_string(i), bodies_.back().get());
  }
}

void KernelBuild::SpawnHelper() {
  const TimeNs work = std::max<TimeNs>(
      Milliseconds(1), rng_.ExponentialTime(kHelperMean));
  helpers_.push_back(std::make_unique<HelperBody>(work));
  kernel_.Spawn("as", helpers_.back().get());
}

}  // namespace vscale
