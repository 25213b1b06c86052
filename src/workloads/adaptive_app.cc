#include "src/workloads/adaptive_app.h"

#include <cassert>

namespace vscale {

namespace {
// Team size: one worker per vCPU of the 4-vCPU VMs every caller builds.
constexpr int kMaxWorkers = 4;
// Per-chunk work varies uniformly by up to this fraction around chunk_mean.
constexpr double kChunkImbalance = 0.3;
}  // namespace

// Worker loop: claim a chunk, compute it; in adaptive mode a worker whose index is
// beyond the current online-vCPU count parks on the gate condvar between chunks and
// is woken when any peer observes regrown capacity.
class AdaptiveApp::Worker : public ThreadBody {
 public:
  Worker(AdaptiveApp& app, int index, Rng rng) : app_(app), index_(index), rng_(rng) {}

  Op Next(GuestKernel& kernel, GuestThread& thread) override {
    (void)thread;
    AdaptiveApp& a = app_;
    switch (phase_) {
      case Phase::kClaim: {
        if (a.chunks_claimed_ >= a.config_.chunks) {
          // No work left: release anyone still parked so they can exit too.
          phase_ = Phase::kDrainLock;
          return Next(kernel, thread);
        }
        if (a.config_.adaptive && index_ >= kernel.online_cpus()) {
          // The VM has fewer vCPUs than workers: park instead of oversubscribing.
          phase_ = Phase::kParkDecide;
          return Op::MutexLock(a.gate_mutex_);
        }
        ++a.chunks_claimed_;
        phase_ = Phase::kCompute;
        const double skew = rng_.UniformReal(-kChunkImbalance, kChunkImbalance);
        const TimeNs chunk = static_cast<TimeNs>(
            static_cast<double>(a.config_.chunk_mean) * (1.0 + skew));
        return Op::Compute(std::max<TimeNs>(Microseconds(50), chunk));
      }
      case Phase::kCompute:
        ++a.chunks_done_;
        // A worker that sees spare capacity un-parks one peer.
        if (a.config_.adaptive && a.parked_workers_ > 0 &&
            kernel.online_cpus() > index_ + 1) {
          phase_ = Phase::kUnparkSignal;
          return Op::CondSignal(a.gate_cond_);
        }
        phase_ = Phase::kClaim;
        return Next(kernel, thread);
      case Phase::kUnparkSignal:
        phase_ = Phase::kClaim;
        return Next(kernel, thread);
      case Phase::kParkDecide:
        // Holding the gate mutex: re-check under the lock, then park.
        if (index_ < kernel.online_cpus() || a.chunks_claimed_ >= a.config_.chunks) {
          phase_ = Phase::kParkAbort;
          return Op::MutexUnlock(a.gate_mutex_);
        }
        ++a.parks_;
        ++a.parked_workers_;
        phase_ = Phase::kParkWake;
        return Op::CondWait(a.gate_cond_, a.gate_mutex_);
      case Phase::kParkWake:
        --a.parked_workers_;
        phase_ = Phase::kParkAbort;
        return Op::MutexUnlock(a.gate_mutex_);
      case Phase::kParkAbort:
        phase_ = Phase::kClaim;
        return Next(kernel, thread);
      case Phase::kDrainLock:
        phase_ = Phase::kDrainSignal;
        return Op::MutexLock(a.gate_mutex_);
      case Phase::kDrainSignal:
        phase_ = Phase::kDrainUnlock;
        return Op::CondBroadcast(a.gate_cond_);
      case Phase::kDrainUnlock:
        phase_ = Phase::kExit;
        return Op::MutexUnlock(a.gate_mutex_);
      case Phase::kExit:
        return Op::Exit();
    }
    return Op::Exit();
  }

 private:
  enum class Phase {
    kClaim,
    kCompute,
    kUnparkSignal,
    kParkDecide,
    kParkWake,
    kParkAbort,
    kDrainLock,
    kDrainSignal,
    kDrainUnlock,
    kExit,
  };

  AdaptiveApp& app_;
  int index_;
  Rng rng_;
  Phase phase_ = Phase::kClaim;
};

AdaptiveApp::AdaptiveApp(GuestKernel& kernel, AdaptiveAppConfig config, uint64_t seed)
    : kernel_(kernel), config_(std::move(config)), rng_(seed) {}

AdaptiveApp::~AdaptiveApp() = default;

void AdaptiveApp::Start() {
  assert(!started_);
  started_ = true;
  start_time_ = kernel_.NowNs();
  gate_mutex_ = kernel_.CreateMutex();
  gate_cond_ = kernel_.CreateCond();
  live_workers_ = kMaxWorkers;
  auto previous_hook = kernel_.on_thread_exit;
  kernel_.on_thread_exit = [this, previous_hook](GuestThread& t) {
    if (previous_hook) {
      previous_hook(t);
    }
    for (const auto& w : worker_threads_) {
      if (w == &t) {
        OnWorkerExit();
        return;
      }
    }
  };
  for (int i = 0; i < kMaxWorkers; ++i) {
    workers_.push_back(std::make_unique<Worker>(*this, i, rng_.Fork(500 + i)));
    GuestThread& t = kernel_.Spawn(config_.name + "/" + std::to_string(i),
                                   workers_.back().get());
    worker_threads_.push_back(&t);
  }
}

void AdaptiveApp::OnWorkerExit() {
  if (--live_workers_ == 0) {
    done_ = true;
    finish_time_ = kernel_.NowNs();
  }
}

}  // namespace vscale
