// Tests for the vScale core: Algorithm 1 (extendability), the hypervisor-side
// ticker, the guest-side balancer, and the daemon loop.

#include <gtest/gtest.h>

#include <memory>

#include "src/guest/kernel.h"
#include "src/hypervisor/machine.h"
#include "src/vscale/balancer.h"
#include "src/vscale/daemon.h"
#include "src/vscale/extendability.h"
#include "src/vscale/ticker.h"

namespace vscale {
namespace {

constexpr TimeNs kPeriod = Milliseconds(10);

VmShareInput Vm(int64_t weight, TimeNs consumed, int max_vcpus) {
  VmShareInput in;
  in.weight = weight;
  in.consumed = consumed;
  in.max_vcpus = max_vcpus;
  return in;
}

// --- Algorithm 1 unit tests ---

TEST(ExtendabilityTest, SoleVmGetsWholePool) {
  const auto out =
      ComputeExtendability({Vm(256, Milliseconds(40), 4)}, 4, kPeriod);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].competitor);
  EXPECT_EQ(out[0].ext_ns, 4 * kPeriod);
  EXPECT_EQ(out[0].optimal_vcpus, 4);
}

TEST(ExtendabilityTest, ReleaserKeepsFairShare) {
  // VM0 idle (releaser), VM1 greedy (competitor); equal weights, 4 pCPUs.
  const auto out = ComputeExtendability(
      {Vm(256, 0, 4), Vm(256, 4 * kPeriod, 4)}, 4, kPeriod);
  EXPECT_FALSE(out[0].competitor);
  EXPECT_EQ(out[0].ext_ns, 2 * kPeriod);  // line 10: fair share retained
  EXPECT_EQ(out[0].optimal_vcpus, 2);
  EXPECT_TRUE(out[1].competitor);
  // Competitor: fair (2) + all slack (2) = 4 pCPUs.
  EXPECT_EQ(out[1].ext_ns, 4 * kPeriod);
  EXPECT_EQ(out[1].optimal_vcpus, 4);
}

TEST(ExtendabilityTest, SlackSplitsByWeightAmongCompetitors) {
  // One idle releaser (weight 2) + two competitors (weights 2 and 1) on 5 pCPUs.
  const auto out = ComputeExtendability(
      {Vm(200, 0, 4), Vm(200, 5 * kPeriod, 8), Vm(100, 5 * kPeriod, 8)}, 5,
      kPeriod);
  const TimeNs fair0 = out[0].fair_ns;
  EXPECT_EQ(fair0, 2 * kPeriod);
  const TimeNs slack = fair0;  // releaser consumed 0
  // Competitor 1: fair 2 + (2/3) slack; competitor 2: fair 1 + (1/3) slack.
  // Tolerance comparisons on final values, not accumulation.
  // vslint: allow(float-accum, tolerance comparison on a final value, not accumulation)
  EXPECT_NEAR(static_cast<double>(out[1].ext_ns),
              static_cast<double>(2 * kPeriod + slack * 2 / 3), 100.0);
  // vslint: allow(float-accum, tolerance comparison on a final value, not accumulation)
  EXPECT_NEAR(static_cast<double>(out[2].ext_ns),
              static_cast<double>(kPeriod + slack / 3), 100.0);
}

TEST(ExtendabilityTest, CeilGrantsPartialVcpu) {
  ExtendabilityOptions opt;
  opt.rounding = VcpuRounding::kCeil;
  // Fair share 2.5 pCPUs -> ceil = 3.
  const auto out = ComputeExtendability(
      {Vm(256, 5 * kPeriod, 8), Vm(256, 5 * kPeriod, 8)}, 5, kPeriod, opt);
  EXPECT_EQ(out[0].optimal_vcpus, 3);
}

TEST(ExtendabilityTest, RoundingModesDiffer) {
  const std::vector<VmShareInput> vms = {Vm(256, 5 * kPeriod, 8),
                                         Vm(256, 5 * kPeriod, 8)};
  ExtendabilityOptions ceil{.rounding = VcpuRounding::kCeil};
  ExtendabilityOptions floorr{.rounding = VcpuRounding::kFloor};
  ExtendabilityOptions nearest{.rounding = VcpuRounding::kNearest};
  EXPECT_EQ(ComputeExtendability(vms, 5, kPeriod, ceil)[0].optimal_vcpus, 3);
  EXPECT_EQ(ComputeExtendability(vms, 5, kPeriod, floorr)[0].optimal_vcpus, 2);
  // 2.5 rounds away from zero with lround.
  EXPECT_EQ(ComputeExtendability(vms, 5, kPeriod, nearest)[0].optimal_vcpus, 3);
}

TEST(ExtendabilityTest, NeverBelowOneVcpu) {
  const auto out = ComputeExtendability(
      {Vm(1, 0, 4), Vm(10000, 4 * kPeriod, 4)}, 4, kPeriod);
  EXPECT_GE(out[0].optimal_vcpus, 1);
}

TEST(ExtendabilityTest, ClampedToMaxVcpus) {
  const auto out = ComputeExtendability({Vm(256, 8 * kPeriod, 2)}, 8, kPeriod);
  EXPECT_EQ(out[0].optimal_vcpus, 2);
}

TEST(ExtendabilityTest, CapClampsExtendability) {
  auto vm = Vm(256, 4 * kPeriod, 8);
  vm.cap_pcpus = 1.5;
  const auto out = ComputeExtendability({vm}, 4, kPeriod);
  EXPECT_EQ(out[0].ext_ns, static_cast<TimeNs>(1.5 * kPeriod));
  EXPECT_EQ(out[0].optimal_vcpus, 2);
}

TEST(ExtendabilityTest, ReservationRaisesExtendability) {
  auto idle = Vm(1, 0, 8);
  idle.reservation_pcpus = 3.0;
  const auto out =
      ComputeExtendability({idle, Vm(1000, 4 * kPeriod, 8)}, 4, kPeriod);
  EXPECT_GE(out[0].ext_ns, 3 * kPeriod);
  EXPECT_GE(out[0].optimal_vcpus, 3);
}

TEST(ExtendabilityTest, DemandBasedCountsWaitsAsDemand) {
  // A VM that consumed little but waited a lot is NOT a releaser under demand-based
  // accounting, and contributes no phantom slack.
  auto throttled = Vm(256, 2 * kPeriod / 10, 4);
  throttled.waited = 2 * kPeriod;  // two vCPUs queued through the whole window
  ExtendabilityOptions consumption_only;
  ExtendabilityOptions demand{.rounding = VcpuRounding::kCeil, .demand_based = true};
  const std::vector<VmShareInput> vms = {throttled, Vm(256, 4 * kPeriod, 4)};
  const auto plain = ComputeExtendability(vms, 4, kPeriod, consumption_only);
  const auto with_demand = ComputeExtendability(vms, 4, kPeriod, demand);
  EXPECT_FALSE(plain[0].competitor);
  EXPECT_TRUE(with_demand[0].competitor);
  EXPECT_GT(plain[1].ext_ns, with_demand[1].ext_ns);
}

TEST(ExtendabilityTest, EmptyAndDegenerateInputs) {
  EXPECT_TRUE(ComputeExtendability({}, 4, kPeriod).empty());
  const auto zero_pool = ComputeExtendability({Vm(256, 0, 4)}, 0, kPeriod);
  EXPECT_EQ(zero_pool[0].ext_ns, 0);
  const auto zero_weight = ComputeExtendability({Vm(0, 0, 4)}, 4, kPeriod);
  EXPECT_EQ(zero_weight[0].fair_ns, 0);
}

// Property: Σ releaser slack is redistributed exactly; extendability of every VM is
// at least its fair share and never exceeds the pool.
TEST(ExtendabilityPropertyTest, BoundsHoldForRandomInputs) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<VmShareInput> vms;
    const int n = 1 + static_cast<int>(rng.NextBelow(8));
    const int pool = 1 + static_cast<int>(rng.NextBelow(16));
    for (int i = 0; i < n; ++i) {
      VmShareInput in;
      in.weight = 1 + static_cast<int64_t>(rng.NextBelow(1024));
      in.consumed = rng.UniformTime(0, pool * kPeriod);
      in.max_vcpus = 1 + static_cast<int>(rng.NextBelow(16));
      vms.push_back(in);
    }
    const auto out = ComputeExtendability(vms, pool, kPeriod);
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_GE(out[i].ext_ns, out[i].fair_ns) << "trial " << trial;
      EXPECT_LE(out[i].ext_ns, pool * kPeriod) << "trial " << trial;
      EXPECT_GE(out[i].optimal_vcpus, 1);
      EXPECT_LE(out[i].optimal_vcpus, std::max(1, vms[i].max_vcpus));
    }
  }
}

// --- ticker ---

class BusyGuest : public GuestOs {
 public:
  BusyGuest(Machine& m, DomainId dom) : machine_(m), dom_(dom) {
    m.domain(dom).set_guest(this);
    for (int v = 0; v < m.domain(dom).n_vcpus(); ++v) {
      m.StartVcpu(dom, v);
    }
  }
  void OnScheduledIn(VcpuId, TimeNs) override {}
  void OnDescheduled(VcpuId, TimeNs) override {}
  void Advance(VcpuId, TimeNs) override {}
  TimeNs NextEventDelta(VcpuId) override { return kTimeNever; }
  void OnDeadline(VcpuId) override {}
  void DeliverEvent(VcpuId, EvtchnPort) override {}

 private:
  Machine& machine_;
  DomainId dom_;
};

TEST(TickerTest, PublishesExtendabilityForSmpVms) {
  MachineConfig mc;
  mc.n_pcpus = 4;
  Machine machine(mc);
  Domain& smp = machine.CreateDomain("smp", 512, 4);
  Domain& up = machine.CreateDomain("up", 256, 1);
  BusyGuest g0(machine, smp.id());
  BusyGuest g1(machine, up.id());
  ExtendabilityTicker ticker(machine);
  ticker.Start();
  machine.sim().RunUntil(Milliseconds(100));
  EXPECT_GT(ticker.passes(), 5);
  EXPECT_GT(smp.extendability_nvcpus, 0);
  EXPECT_EQ(up.extendability_nvcpus, 0);  // UP-VMs are omitted
  EXPECT_EQ(machine.ReadExtendability(smp.id()), smp.extendability_nvcpus);
}

TEST(TickerTest, GreedySoloVmReadsFullPool) {
  MachineConfig mc;
  mc.n_pcpus = 4;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("solo", 256, 4);
  BusyGuest g(machine, d.id());
  ExtendabilityTicker ticker(machine);
  ticker.Start();
  machine.sim().RunUntil(Milliseconds(100));
  EXPECT_EQ(d.extendability_nvcpus, 4);
}

TEST(TickerTest, ResetsConsumptionWindowEachPass) {
  MachineConfig mc;
  mc.n_pcpus = 2;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 256, 2);
  BusyGuest g(machine, d.id());
  ExtendabilityTicker ticker(machine);
  ticker.Start();
  machine.sim().RunUntil(Milliseconds(105));
  // Window is at most one period deep.
  EXPECT_LE(machine.WindowConsumption(d.id()), 2 * Milliseconds(10) + Milliseconds(1));
}

// --- balancer & daemon ---

TEST(BalancerTest, ReachesTargetAndNeverFreezesCpu0) {
  MachineConfig mc;
  mc.n_pcpus = 4;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 1024, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  VscaleBalancer balancer(kernel);
  balancer.ApplyTarget(1);
  EXPECT_EQ(kernel.online_cpus(), 1);
  EXPECT_FALSE(kernel.IsFrozen(0));
  balancer.ApplyTarget(3);
  EXPECT_EQ(kernel.online_cpus(), 3);
  EXPECT_EQ(balancer.freezes(), 3);
  EXPECT_EQ(balancer.unfreezes(), 2);
}

TEST(BalancerTest, TargetClampedToValidRange) {
  MachineConfig mc;
  mc.n_pcpus = 4;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 1024, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  VscaleBalancer balancer(kernel);
  balancer.ApplyTarget(0);
  EXPECT_EQ(kernel.online_cpus(), 1);
  balancer.ApplyTarget(99);
  EXPECT_EQ(kernel.online_cpus(), 4);
}

TEST(BalancerTest, ShrinkFreezesHighestIdsFirst) {
  MachineConfig mc;
  mc.n_pcpus = 4;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 1024, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  VscaleBalancer balancer(kernel);
  balancer.ApplyTarget(2);
  EXPECT_FALSE(kernel.IsFrozen(0));
  EXPECT_FALSE(kernel.IsFrozen(1));
  EXPECT_TRUE(kernel.IsFrozen(2));
  EXPECT_TRUE(kernel.IsFrozen(3));
}

TEST(DaemonTest, TracksPublishedTarget) {
  MachineConfig mc;
  mc.n_pcpus = 8;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 1024, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  DaemonConfig dc;
  dc.shrink_confirmations = 1;
  dc.grow_confirmations = 1;
  dc.useful_obtainment_guard = false;  // exercise raw channel-following
  VscaleDaemon daemon(kernel, machine, dc);
  daemon.Start();
  // Publish a target of 2 and let the daemon act on it.
  machine.WriteExtendability(d.id(), 2, Milliseconds(20));
  machine.sim().RunUntil(Milliseconds(100));
  EXPECT_EQ(kernel.online_cpus(), 2);
  // Now grow back to 4.
  machine.WriteExtendability(d.id(), 4, Milliseconds(40));
  machine.sim().RunUntil(Milliseconds(200));
  EXPECT_EQ(kernel.online_cpus(), 4);
}

TEST(DaemonTest, ConfirmationsFilterNoise) {
  MachineConfig mc;
  mc.n_pcpus = 8;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 1024, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  DaemonConfig dc;
  dc.shrink_confirmations = 3;
  VscaleDaemon daemon(kernel, machine, dc);
  daemon.Start();
  machine.sim().RunUntil(Milliseconds(25));
  // A single 10 ms dip must not trigger a freeze.
  machine.WriteExtendability(d.id(), 2, Milliseconds(20));
  machine.sim().RunUntil(Milliseconds(40));
  machine.WriteExtendability(d.id(), 4, Milliseconds(40));
  machine.sim().RunUntil(Milliseconds(120));
  EXPECT_EQ(kernel.online_cpus(), 4);
  EXPECT_EQ(daemon.balancer().freezes(), 0);
}

// --- vote-hysteresis edge cases ---
// The daemon polls every 10 ms starting at ~0; a value written at t sees its
// first poll at the next 10 ms boundary. Each WriteExtendability bumps the
// channel sequence number, so flapping writes always read as fresh.

TEST(DaemonTest, FlappingAtShrinkBoundaryNeverFreezes) {
  MachineConfig mc;
  mc.n_pcpus = 8;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 1024, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  DaemonConfig dc;
  dc.shrink_confirmations = 3;
  dc.useful_obtainment_guard = false;
  VscaleDaemon daemon(kernel, machine, dc);
  daemon.Start();
  // Alternate 2/4 so every poll sees a fresh value but never three consecutive
  // shrink votes: 2 at most twice in a row is one vote short of the boundary.
  for (int k = 0; k < 20; ++k) {
    machine.sim().ScheduleAt(Milliseconds(5 + 10 * k), [&machine, &d, k] {
      machine.WriteExtendability(d.id(), (k % 2 == 0) ? 2 : 4,
                                 Milliseconds(20));
    });
  }
  machine.sim().RunUntil(Milliseconds(220));
  EXPECT_EQ(kernel.online_cpus(), 4);
  EXPECT_EQ(daemon.balancer().freezes(), 0);
}

TEST(DaemonTest, ShrinkBoundaryExactlyMetFreezesOnFinalVote) {
  MachineConfig mc;
  mc.n_pcpus = 8;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 1024, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  DaemonConfig dc;
  dc.shrink_confirmations = 3;
  dc.useful_obtainment_guard = false;
  VscaleDaemon daemon(kernel, machine, dc);
  daemon.Start();
  machine.sim().ScheduleAt(Milliseconds(5), [&machine, &d] {
    machine.WriteExtendability(d.id(), 2, Milliseconds(20));
  });
  // Polls at 10 and 20 ms are votes one and two: still one short.
  machine.sim().RunUntil(Milliseconds(25));
  EXPECT_EQ(kernel.online_cpus(), 4);
  EXPECT_EQ(daemon.balancer().freezes(), 0);
  // The 30 ms poll is the third consecutive vote: shrink exactly then.
  machine.sim().RunUntil(Milliseconds(35));
  EXPECT_EQ(kernel.online_cpus(), 2);
}

TEST(DaemonTest, TargetChangeMidConfirmationRestartsTheCount) {
  MachineConfig mc;
  mc.n_pcpus = 8;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 1024, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  DaemonConfig dc;
  dc.shrink_confirmations = 3;
  dc.useful_obtainment_guard = false;
  VscaleDaemon daemon(kernel, machine, dc);
  daemon.Start();
  // Two votes for 2, then the published target moves to 3: the partial
  // confirmation run for 2 must not carry over to the new target.
  machine.sim().ScheduleAt(Milliseconds(5), [&machine, &d] {
    machine.WriteExtendability(d.id(), 2, Milliseconds(20));
  });
  machine.sim().ScheduleAt(Milliseconds(25), [&machine, &d] {
    machine.WriteExtendability(d.id(), 3, Milliseconds(30));
  });
  // Polls at 30 and 40 ms are only votes one and two for target 3.
  machine.sim().RunUntil(Milliseconds(45));
  EXPECT_EQ(kernel.online_cpus(), 4);
  // The 50 ms poll completes three consecutive votes for 3.
  machine.sim().RunUntil(Milliseconds(55));
  EXPECT_EQ(kernel.online_cpus(), 3);
  EXPECT_EQ(daemon.balancer().freezes(), 1);
}

TEST(DaemonTest, FlappingAtGrowBoundaryHoldsUntilConfirmed) {
  MachineConfig mc;
  mc.n_pcpus = 8;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 1024, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  DaemonConfig dc;
  dc.shrink_confirmations = 1;
  dc.grow_confirmations = 3;
  dc.useful_obtainment_guard = false;
  VscaleDaemon daemon(kernel, machine, dc);
  daemon.Start();
  machine.sim().ScheduleAt(Milliseconds(5), [&machine, &d] {
    machine.WriteExtendability(d.id(), 2, Milliseconds(20));
  });
  machine.sim().RunUntil(Milliseconds(15));
  ASSERT_EQ(kernel.online_cpus(), 2);  // single-vote shrink
  // Flap 4/2: grow votes for 4 reset every other poll, so no unfreeze.
  for (int k = 0; k < 6; ++k) {
    machine.sim().ScheduleAt(Milliseconds(15 + 10 * k), [&machine, &d, k] {
      machine.WriteExtendability(d.id(), (k % 2 == 0) ? 4 : 2,
                                 Milliseconds(20));
    });
  }
  machine.sim().RunUntil(Milliseconds(78));
  EXPECT_EQ(kernel.online_cpus(), 2);
  EXPECT_EQ(daemon.balancer().unfreezes(), 0);
  // Now hold 4 steady: polls at 80, 90, 100 ms confirm and grow on the third.
  machine.sim().ScheduleAt(Milliseconds(78), [&machine, &d] {
    machine.WriteExtendability(d.id(), 4, Milliseconds(40));
  });
  machine.sim().RunUntil(Milliseconds(95));
  EXPECT_EQ(kernel.online_cpus(), 2);
  machine.sim().RunUntil(Milliseconds(105));
  EXPECT_EQ(kernel.online_cpus(), 4);
}

TEST(DaemonTest, DaemonCostIsChargedInGuest) {
  MachineConfig mc;
  mc.n_pcpus = 4;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 1024, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  VscaleDaemon daemon(kernel, machine, DaemonConfig{});
  GuestThread& t = daemon.Start();
  machine.sim().RunUntil(Seconds(1));
  EXPECT_GT(daemon.channel().reads(), 90);
  // ~100 cycles of ~1 us channel reads: tiny but nonzero charged CPU.
  EXPECT_GT(t.cpu_time, 0);
  EXPECT_LT(t.cpu_time, Milliseconds(5));
  EXPECT_TRUE(t.rt);
  EXPECT_EQ(t.pinned_cpu(), 0);
}

}  // namespace
}  // namespace vscale

namespace vscale {
namespace {

// --- daemon policy guards (spin gate & idle hold) ---

class SpinnyBody : public ThreadBody {
 public:
  explicit SpinnyBody(int flag) : flag_(flag) {}
  Op Next(GuestKernel&, GuestThread&) override {
    // Spin on a flag that is never raised: 100% busy-wait cycles.
    return Op::SpinFlagWait(flag_, 1);
  }

 private:
  int flag_;
};

class BusyBody : public ThreadBody {
 public:
  Op Next(GuestKernel&, GuestThread&) override {
    return Op::Compute(Milliseconds(5));
  }
};

TEST(DaemonPolicyTest, IdleVmHoldsItsSize) {
  MachineConfig mc;
  mc.n_pcpus = 8;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 1024, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  VscaleDaemon daemon(kernel, machine, DaemonConfig{});
  daemon.Start();
  // The channel says 2 (an idle VM's fair share), but the VM is idle: freezing its
  // blocked vCPUs gains nothing and the daemon must not act.
  machine.WriteExtendability(d.id(), 2, Milliseconds(20));
  machine.sim().RunUntil(Seconds(1));
  EXPECT_EQ(kernel.online_cpus(), 4);
  EXPECT_EQ(daemon.balancer().freezes(), 0);
}

TEST(DaemonPolicyTest, UsefulWorkloadIsNotPacked) {
  MachineConfig mc;
  mc.n_pcpus = 8;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 1024, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  VscaleDaemon daemon(kernel, machine, DaemonConfig{});
  daemon.Start();
  BusyBody body;
  for (int i = 0; i < 4; ++i) {
    kernel.Spawn("busy" + std::to_string(i), &body);
  }
  machine.WriteExtendability(d.id(), 2, Milliseconds(20));
  machine.sim().RunUntil(Seconds(1));
  // Compute-bound threads (zero spin fraction): the gate blocks the shrink.
  EXPECT_EQ(kernel.online_cpus(), 4);
}

TEST(DaemonPolicyTest, SpinWastingWorkloadPacks) {
  MachineConfig mc;
  mc.n_pcpus = 8;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 1024, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  VscaleDaemon daemon(kernel, machine, DaemonConfig{});
  daemon.Start();
  const int flag = kernel.CreateSpinFlag();
  std::vector<std::unique_ptr<SpinnyBody>> bodies;
  for (int i = 0; i < 4; ++i) {
    bodies.push_back(std::make_unique<SpinnyBody>(flag));
    kernel.Spawn("spin" + std::to_string(i), bodies.back().get());
  }
  machine.WriteExtendability(d.id(), 2, Milliseconds(20));
  machine.sim().RunUntil(Seconds(1));
  // Pure busy-wait cycles: packing costs nothing real; the daemon follows the channel.
  EXPECT_EQ(kernel.online_cpus(), 2);
  EXPECT_GE(daemon.balancer().freezes(), 2);
}

TEST(DaemonPolicyTest, GuardCanBeDisabled) {
  MachineConfig mc;
  mc.n_pcpus = 8;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 1024, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  DaemonConfig dc;
  dc.useful_obtainment_guard = false;
  VscaleDaemon daemon(kernel, machine, dc);
  daemon.Start();
  BusyBody body;
  for (int i = 0; i < 4; ++i) {
    kernel.Spawn("busy" + std::to_string(i), &body);
  }
  machine.WriteExtendability(d.id(), 2, Milliseconds(20));
  machine.sim().RunUntil(Seconds(1));
  // Without the guard the daemon follows the channel blindly (the paper's policy).
  EXPECT_EQ(kernel.online_cpus(), 2);
}

}  // namespace
}  // namespace vscale

#include "src/vscale/vcpubal.h"
#include "src/workloads/omp_app.h"

namespace vscale {
namespace {

TEST(VcpuBalTest, WeightShareTargetsIgnoreConsumption) {
  MachineConfig mc;
  mc.n_pcpus = 4;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 256, 4);   // weight share: 2 of 4 pCPUs
  machine.CreateDomain("other", 256, 2);            // idle neighbour
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  VcpuBalController controller(machine);
  controller.Manage(kernel);
  controller.Poll();
  // Weight-only policy shrinks to ceil(2.0) = 2 although the neighbour is idle
  // (not work-conserving — the paper's criticism).
  EXPECT_EQ(kernel.online_cpus(), 2);
  EXPECT_EQ(controller.reconfigurations(), 2);
  EXPECT_GT(controller.hotplug_stall(), Milliseconds(1));
  EXPECT_GT(controller.monitoring_cost(), Microseconds(500));
}

TEST(VcpuBalTest, GrowsBackWhenWeightsChange) {
  MachineConfig mc;
  mc.n_pcpus = 4;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 256, 4);
  Domain& other = machine.CreateDomain("other", 256, 2);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  VcpuBalController controller(machine);
  controller.Manage(kernel);
  controller.Poll();
  EXPECT_EQ(kernel.online_cpus(), 2);
  other.set_weight(1);  // the VM's weight share now covers the whole pool
  controller.Poll();
  EXPECT_EQ(kernel.online_cpus(), 4);
}

TEST(VcpuBalTest, ReconfigurationStallsGuestWork) {
  MachineConfig mc;
  mc.n_pcpus = 4;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 256, 4);
  machine.CreateDomain("other", 256, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  OmpAppConfig ac;
  ac.name = "load";
  ac.threads = 4;
  ac.intervals = 1;
  ac.grain_mean = Seconds(10);
  ac.spin_count = 0;
  OmpApp app(kernel, ac, 3);
  app.Start();
  machine.sim().RunUntil(Milliseconds(100));
  TimeNs cpu0 = 0;
  TimeNs spin0 = 0;
  kernel.TotalThreadTimes(&cpu0, &spin0);
  VcpuBalController controller(machine);
  controller.Manage(kernel);
  controller.Poll();  // shrinks to 2 via hotplug, stop_machine stalls everyone
  const TimeNs stall = controller.hotplug_stall();
  EXPECT_GT(stall, 0);
  machine.sim().RunUntil(Milliseconds(105));
  EXPECT_EQ(kernel.online_cpus(), 2);
}

}  // namespace
}  // namespace vscale
