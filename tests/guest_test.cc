// Tests for the guest kernel: dispatch, load balancing, timer ticks (incl. dynamic
// ticks), reschedule IPIs, the freeze/evacuation mechanism, I/O interrupt routing,
// and the Linux-hotplug baseline.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/faults/fault_injector.h"
#include "src/faults/fault_plan.h"
#include "src/guest/kernel.h"
#include "src/hypervisor/machine.h"

namespace vscale {
namespace {

// Replays a fixed op script, then exits (or loops it forever).
class ScriptBody : public ThreadBody {
 public:
  explicit ScriptBody(std::vector<Op> ops, bool loop = false)
      : ops_(std::move(ops)), loop_(loop) {}

  Op Next(GuestKernel&, GuestThread&) override {
    if (index_ >= ops_.size()) {
      if (!loop_) {
        return Op::Exit();
      }
      index_ = 0;
    }
    return ops_[index_++];
  }

  size_t completed() const { return index_; }

 private:
  std::vector<Op> ops_;
  bool loop_;
  size_t index_ = 0;
};

struct GuestWorld {
  explicit GuestWorld(int pcpus, int vcpus, GuestConfig gc = {}, uint64_t seed = 1) {
    MachineConfig mc;
    mc.n_pcpus = pcpus;
    mc.seed = seed;
    machine = std::make_unique<Machine>(mc);
    Domain& d = machine->CreateDomain("vm", 256 * vcpus, vcpus);
    kernel = std::make_unique<GuestKernel>(*machine, machine->sim(), d, gc);
  }
  ScriptBody& Body(std::vector<Op> ops, bool loop = false) {
    bodies.push_back(std::make_unique<ScriptBody>(std::move(ops), loop));
    return *bodies.back();
  }
  Simulator& sim() { return machine->sim(); }

  std::unique_ptr<Machine> machine;
  std::unique_ptr<GuestKernel> kernel;
  std::vector<std::unique_ptr<ScriptBody>> bodies;
};

TEST(GuestKernelTest, ComputeThreadRunsAndExits) {
  GuestWorld w(2, 2);
  int exits = 0;
  w.kernel->on_thread_exit = [&](GuestThread&) { ++exits; };
  GuestThread& t = w.kernel->Spawn("worker", &w.Body({Op::Compute(Milliseconds(5))}));
  w.sim().RunUntil(Milliseconds(10));
  EXPECT_EQ(exits, 1);
  EXPECT_EQ(t.state, ThreadState::kExited);
  EXPECT_NEAR(ToMilliseconds(t.cpu_time), 5.0, 0.5);
}

TEST(GuestKernelTest, ThreadsSpreadAcrossVcpus) {
  GuestWorld w(4, 4);
  std::vector<GuestThread*> threads;
  for (int i = 0; i < 4; ++i) {
    threads.push_back(&w.kernel->Spawn(
        "w" + std::to_string(i), &w.Body({Op::Compute(Milliseconds(50))})));
  }
  w.sim().RunUntil(Milliseconds(60));
  // All finished in ~50 ms -> they must have run on distinct vCPUs.
  for (GuestThread* t : threads) {
    EXPECT_EQ(t->state, ThreadState::kExited);
  }
  EXPECT_GE(ToMilliseconds(w.machine->domain(0).TotalRuntime()), 190.0);
}

TEST(GuestKernelTest, TimeSharingOnOneVcpuIsFair) {
  GuestWorld w(1, 1);
  GuestThread& a = w.kernel->Spawn("a", &w.Body({Op::Compute(Seconds(10))}, true));
  GuestThread& b = w.kernel->Spawn("b", &w.Body({Op::Compute(Seconds(10))}, true));
  w.sim().RunUntil(Seconds(1));
  EXPECT_NEAR(ToSeconds(a.cpu_time), 0.5, 0.05);
  EXPECT_NEAR(ToSeconds(b.cpu_time), 0.5, 0.05);
}

TEST(GuestKernelTest, TimerTicksAt1000HzWhileBusy) {
  GuestWorld w(1, 1);
  w.kernel->Spawn("busy", &w.Body({Op::Compute(Seconds(10))}, true));
  w.sim().RunUntil(Seconds(1));
  EXPECT_NEAR(static_cast<double>(w.kernel->cpu(0).stats.timer_ints), 1000.0, 30.0);
}

TEST(GuestKernelTest, DynamicTicksStopWhenIdle) {
  GuestWorld w(2, 2);
  w.kernel->Spawn("brief", &w.Body({Op::Compute(Milliseconds(10))}));
  w.sim().RunUntil(Seconds(1));
  // After the thread exits both vCPUs are idle: tick counts must stop growing.
  const int64_t ticks_after_idle = w.kernel->cpu(0).stats.timer_ints +
                                   w.kernel->cpu(1).stats.timer_ints;
  w.sim().RunUntil(Seconds(2));
  EXPECT_EQ(w.kernel->cpu(0).stats.timer_ints + w.kernel->cpu(1).stats.timer_ints,
            ticks_after_idle);
  EXPECT_LE(ticks_after_idle, 30);
}

TEST(GuestKernelTest, RemoteWakeSendsReschedIpi) {
  GuestWorld w(2, 2);
  // One sleeper whose timer wake lands remotely (timer port), then a busy thread on
  // cpu0 waking a worker: use sleep/compute pairs to generate wakeups.
  w.kernel->Spawn("sleeper", &w.Body({Op::Sleep(Milliseconds(1)),
                                      Op::Compute(Milliseconds(1))},
                                     true));
  w.sim().RunUntil(Seconds(1));
  int64_t total_timer_wakes = 0;
  for (int c = 0; c < 2; ++c) {
    total_timer_wakes += w.kernel->cpu(c).stats.timer_ints;
  }
  EXPECT_GT(total_timer_wakes, 100);
}

TEST(GuestKernelTest, SleepDurationsAreHonored) {
  GuestWorld w(1, 1);
  GuestThread& t = w.kernel->Spawn(
      "sleeper", &w.Body({Op::Sleep(Milliseconds(200)), Op::Compute(Milliseconds(1))}));
  w.sim().RunUntil(Milliseconds(150));
  EXPECT_EQ(t.state, ThreadState::kBlocked);
  w.sim().RunUntil(Milliseconds(250));
  EXPECT_EQ(t.state, ThreadState::kExited);
}

TEST(GuestKernelTest, FreezeMigratesThreadsAndQuiesces) {
  GuestWorld w(4, 4);
  for (int i = 0; i < 4; ++i) {
    w.kernel->Spawn("w" + std::to_string(i), &w.Body({Op::Compute(Seconds(60))}, true));
  }
  w.sim().RunUntil(Milliseconds(100));
  EXPECT_GT(w.kernel->cpu(3).load(), 0);
  const TimeNs cost = w.kernel->FreezeCpu(3);
  EXPECT_EQ(cost, Nanoseconds(2100));
  w.sim().RunUntil(Milliseconds(200));
  // vCPU3 empty, blocked at the hypervisor, no ticks.
  EXPECT_EQ(w.kernel->cpu(3).load(), 0);
  EXPECT_TRUE(w.kernel->IsFrozen(3));
  EXPECT_EQ(w.machine->domain(0).vcpu(3).state(), VcpuState::kBlocked);
  const int64_t ticks3 = w.kernel->cpu(3).stats.timer_ints;
  w.sim().RunUntil(Seconds(1));
  EXPECT_EQ(w.kernel->cpu(3).stats.timer_ints, ticks3);
  // All four workers keep running on the remaining three vCPUs.
  TimeNs cpu_total = 0;
  for (const auto& t : w.kernel->threads()) {
    cpu_total += t->cpu_time;
  }
  EXPECT_GT(ToSeconds(cpu_total), 2.5);
}

TEST(GuestKernelTest, UnfreezeRestoresParallelism) {
  GuestWorld w(4, 4);
  for (int i = 0; i < 4; ++i) {
    w.kernel->Spawn("w" + std::to_string(i), &w.Body({Op::Compute(Seconds(60))}, true));
  }
  w.sim().RunUntil(Milliseconds(100));
  w.kernel->FreezeCpu(3);
  w.sim().RunUntil(Milliseconds(300));
  w.kernel->UnfreezeCpu(3);
  w.sim().RunUntil(Milliseconds(800));
  // NOHZ push balancing repopulates the unfrozen vCPU.
  EXPECT_GT(w.kernel->cpu(3).load(), 0);
  const TimeNs mark = w.machine->domain(0).vcpu(3).total_runtime;
  w.sim().RunUntil(Milliseconds(1800));
  EXPECT_GT(w.machine->domain(0).vcpu(3).total_runtime, mark);
}

TEST(GuestKernelTest, FreezeMaskBlocksPlacement) {
  GuestWorld w(4, 4);
  w.kernel->FreezeCpu(2);
  w.kernel->FreezeCpu(3);
  for (int i = 0; i < 8; ++i) {
    w.kernel->Spawn("w" + std::to_string(i), &w.Body({Op::Compute(Seconds(1))}, true));
  }
  w.sim().RunUntil(Milliseconds(500));
  EXPECT_EQ(w.kernel->cpu(2).load(), 0);
  EXPECT_EQ(w.kernel->cpu(3).load(), 0);
  // Only the freeze IPI itself touched the frozen vCPUs (~1 us each).
  EXPECT_LE(w.machine->domain(0).vcpu(2).total_runtime, Microseconds(10));
  EXPECT_LE(w.machine->domain(0).vcpu(3).total_runtime, Microseconds(10));
}

TEST(GuestKernelTest, PerCpuKthreadsAreNotMigratable) {
  GuestWorld w(2, 2);
  int percpu = 0;
  for (const auto& t : w.kernel->threads()) {
    if (t->type() == ThreadType::kKthreadPerCpu) {
      EXPECT_FALSE(t->migratable());
      ++percpu;
    }
  }
  EXPECT_EQ(percpu, 2);  // one ksoftirqd per vCPU from boot
}

TEST(GuestKernelTest, FreezeMaskReflectsState) {
  GuestWorld w(4, 4);
  EXPECT_EQ(w.kernel->freeze_mask(), 0u);
  w.kernel->FreezeCpu(1);
  w.kernel->FreezeCpu(3);
  EXPECT_EQ(w.kernel->freeze_mask(), 0b1010u);
  EXPECT_EQ(w.kernel->online_cpus(), 2);
  w.kernel->UnfreezeCpu(1);
  EXPECT_EQ(w.kernel->freeze_mask(), 0b1000u);
}

TEST(GuestKernelTest, IoIrqRoutedToBoundVcpuAndHandlerRuns) {
  GuestWorld w(2, 2);
  int handled = 0;
  int handled_on = -1;
  const EvtchnPort port = w.kernel->RegisterIoIrq([&](int cpu) {
    ++handled;
    handled_on = cpu;
  });
  w.sim().RunUntil(Milliseconds(5));
  w.kernel->RaiseIoIrq(port);
  w.sim().RunUntil(Milliseconds(6));
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(handled_on, 0);  // default binding: vCPU0
  EXPECT_EQ(w.kernel->cpu(0).stats.io_irqs, 1);
}

TEST(GuestKernelTest, IoIrqRebindsAwayFromFrozenVcpu) {
  GuestWorld w(2, 2);
  const EvtchnPort port = w.kernel->RegisterIoIrq([](int) {});
  w.kernel->RebindIoIrq(port, 1);
  EXPECT_EQ(w.kernel->IoIrqBinding(port), 1);
  // Spawn a busy thread so vCPU1 has something to evacuate, then freeze it.
  w.kernel->Spawn("busy", &w.Body({Op::Compute(Seconds(10))}, true));
  w.sim().RunUntil(Milliseconds(20));
  w.kernel->FreezeCpu(1);
  w.sim().RunUntil(Milliseconds(40));
  // Either eagerly at evacuation or lazily at the next raise, the irq leaves vCPU1.
  w.kernel->RaiseIoIrq(port);
  EXPECT_EQ(w.kernel->IoIrqBinding(port), 0);
}

TEST(GuestKernelTest, IoWaitCompletesViaCompleteIo) {
  GuestWorld w(1, 1);
  GuestThread& t = w.kernel->Spawn(
      "io", &w.Body({Op::IoWait(), Op::Compute(Milliseconds(1))}));
  w.sim().RunUntil(Milliseconds(5));
  EXPECT_EQ(t.state, ThreadState::kBlocked);
  w.kernel->CompleteIo(t);
  w.sim().RunUntil(Milliseconds(10));
  EXPECT_EQ(t.state, ThreadState::kExited);
}

TEST(GuestKernelTest, RtThreadPreemptsFairThreads) {
  GuestWorld w(1, 1);
  w.kernel->Spawn("hog", &w.Body({Op::Compute(Seconds(10))}, true));
  GuestThread& rt = w.kernel->Spawn(
      "rt", &w.Body({Op::Sleep(Milliseconds(10)), Op::Compute(Microseconds(100))}, true),
      ThreadType::kUthread, /*pinned_cpu=*/0);
  rt.rt = true;
  w.sim().RunUntil(Seconds(1));
  // The RT thread must run ~100 cycles of 100 us = ~10 ms total despite the hog.
  EXPECT_NEAR(ToMilliseconds(rt.cpu_time), 10.0, 3.0);
}

TEST(GuestKernelTest, HotplugRemoveStallsAllVcpus) {
  GuestWorld w(4, 4);
  std::vector<GuestThread*> threads;
  for (int i = 0; i < 4; ++i) {
    threads.push_back(&w.kernel->Spawn("w" + std::to_string(i),
                                       &w.Body({Op::Compute(Seconds(10))}, true)));
  }
  w.sim().RunUntil(Milliseconds(50));
  TimeNs before[4];
  for (int i = 0; i < 4; ++i) {
    before[i] = threads[static_cast<size_t>(i)]->cpu_time;
  }
  // stop_machine for 100 ms: no thread makes progress during the window.
  w.kernel->HotplugRemove(3, Milliseconds(100));
  w.sim().RunUntil(Milliseconds(140));
  for (int i = 0; i < 4; ++i) {
    EXPECT_LE(threads[static_cast<size_t>(i)]->cpu_time - before[i], Milliseconds(5));
  }
  // Afterwards the machine runs on 3 vCPUs.
  w.sim().RunUntil(Milliseconds(400));
  EXPECT_TRUE(w.kernel->IsFrozen(3));
}

TEST(GuestKernelTest, GroupPowerTracksOnlineCpus) {
  GuestWorld w(4, 4);
  w.kernel->FreezeCpu(3);
  w.kernel->FreezeCpu(2);
  EXPECT_EQ(w.kernel->online_cpus(), 2);
  w.kernel->UnfreezeCpu(2);
  EXPECT_EQ(w.kernel->online_cpus(), 3);
}

// kIpiDup under the ipi_dedup hardening: the duplicated freeze/resched
// deliveries land back to back at the same instant and the dedup memory
// absorbs every one past the first, while the handshake still completes.
TEST(GuestKernelTest, DupFreezeIpisAbsorbedByDedup) {
  GuestConfig gc;
  gc.ipi_dedup = true;
  GuestWorld w(2, 2, gc);
  w.kernel->Spawn("busy0", &w.Body({Op::Compute(Seconds(10))}, true));
  w.kernel->Spawn("busy1", &w.Body({Op::Compute(Seconds(10))}, true));
  FaultPlan plan;
  std::string err;
  ASSERT_TRUE(ParseFaultPlan("ipi-dup@10ms+900ms*3", &plan, &err)) << err;
  FaultInjector inj(w.sim(), plan);
  w.kernel->set_fault_injector(&inj);
  inj.Arm();
  for (int cycle = 0; cycle < 5; ++cycle) {
    w.sim().RunUntil(Milliseconds(100 + 160 * cycle));
    w.kernel->FreezeCpu(1);
    w.sim().RunUntil(Milliseconds(180 + 160 * cycle));
    w.kernel->UnfreezeCpu(1);
  }
  w.sim().RunUntil(Seconds(1));
  EXPECT_GT(w.kernel->delivery_dups(), 0);
  EXPECT_GT(w.kernel->dup_ipis_ignored(), 0);
  // Duplication never corrupted the handshake: unfrozen, nothing pending.
  EXPECT_EQ(w.kernel->freeze_mask(), 0u);
  EXPECT_FALSE(w.kernel->cpu(1).evacuate_pending);
}

// The same storm on the stock kernel: the dedup counter stays untouched (the
// hardening is provably off) and the handlers are idempotent anyway — extra
// deliveries cost time but cannot corrupt the freeze state.
TEST(GuestKernelTest, StockKernelToleratesDupIpisIdempotently) {
  GuestWorld w(2, 2);
  w.kernel->Spawn("busy0", &w.Body({Op::Compute(Seconds(10))}, true));
  w.kernel->Spawn("busy1", &w.Body({Op::Compute(Seconds(10))}, true));
  FaultPlan plan;
  std::string err;
  ASSERT_TRUE(ParseFaultPlan("ipi-dup@10ms+900ms*3", &plan, &err)) << err;
  FaultInjector inj(w.sim(), plan);
  w.kernel->set_fault_injector(&inj);
  inj.Arm();
  for (int cycle = 0; cycle < 5; ++cycle) {
    w.sim().RunUntil(Milliseconds(100 + 160 * cycle));
    w.kernel->FreezeCpu(1);
    w.sim().RunUntil(Milliseconds(180 + 160 * cycle));
    w.kernel->UnfreezeCpu(1);
  }
  w.sim().RunUntil(Seconds(1));
  EXPECT_GT(w.kernel->delivery_dups(), 0);
  EXPECT_EQ(w.kernel->dup_ipis_ignored(), 0);
  EXPECT_EQ(w.kernel->freeze_mask(), 0u);
  EXPECT_FALSE(w.kernel->cpu(1).evacuate_pending);
}

// Out-of-order replay: a stale freeze IPI arriving after the handshake already
// completed (and even after a later unfreeze) must be a no-op in either
// direction — the handlers key on evacuate_pending, not on the IPI itself.
TEST(GuestKernelTest, StaleFreezeIpiReplayIsNoOp) {
  GuestWorld w(4, 4);
  for (int i = 0; i < 4; ++i) {
    w.kernel->Spawn("w" + std::to_string(i),
                    &w.Body({Op::Compute(Seconds(60))}, true));
  }
  w.sim().RunUntil(Milliseconds(100));
  w.kernel->FreezeCpu(3);
  w.sim().RunUntil(Milliseconds(200));
  ASSERT_TRUE(w.kernel->IsFrozen(3));
  ASSERT_FALSE(w.kernel->cpu(3).evacuate_pending);
  // Replay the already-consumed freeze IPI twice while still frozen.
  w.kernel->DeliverEvent(3, kPortFreeze);
  w.kernel->DeliverEvent(3, kPortFreeze);
  w.sim().RunUntil(Milliseconds(250));
  EXPECT_TRUE(w.kernel->IsFrozen(3));
  EXPECT_EQ(w.kernel->cpu(3).load(), 0);
  // Unfreeze, then replay again: the stale IPI must not re-freeze or evacuate.
  w.kernel->UnfreezeCpu(3);
  w.sim().RunUntil(Milliseconds(400));
  w.kernel->DeliverEvent(3, kPortFreeze);
  w.sim().RunUntil(Milliseconds(600));
  EXPECT_FALSE(w.kernel->IsFrozen(3));
  EXPECT_FALSE(w.kernel->cpu(3).evacuate_pending);
  EXPECT_GT(w.kernel->cpu(3).load(), 0);  // balancing repopulated it
}

TEST(GuestKernelTest, PinnedThreadStaysOnItsCpu) {
  GuestWorld w(4, 4);
  GuestThread& t = w.kernel->Spawn("pinned", &w.Body({Op::Compute(Seconds(1))}, true),
                                   ThreadType::kUthread, /*pinned_cpu=*/2);
  // Load the other CPUs so balancing would otherwise move it.
  for (int i = 0; i < 6; ++i) {
    w.kernel->Spawn("w" + std::to_string(i), &w.Body({Op::Compute(Seconds(1))}, true));
  }
  w.sim().RunUntil(Milliseconds(500));
  EXPECT_EQ(t.cpu, 2);
  EXPECT_EQ(t.migrations, 0);
}

}  // namespace
}  // namespace vscale
