// Chaos tests: the ISSUE's acceptance scenario and friends. A full vScale stack
// (machine + rival VM + ticker + hardened daemon + watchdog) is driven through
// compound fault schedules — channel staleness, a daemon stall, freeze-op
// failures, a crash, pCPU steal — and must detect each fault within its
// deadline, degrade gracefully to the safe floor, re-converge to the fault-free
// steady state after the window, trip zero invariants in VSCALE_CHECKED builds,
// and replay bit-identically. docs/FAULTS.md describes the fault model.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/faults/fault_injector.h"
#include "src/faults/fault_plan.h"
#include "src/guest/kernel.h"
#include "src/hypervisor/machine.h"
#include "src/metrics/state_digest.h"
#include "src/vscale/daemon.h"
#include "src/vscale/reconciler.h"
#include "src/vscale/ticker.h"
#include "src/vscale/watchdog.h"
#include "src/workloads/testbed.h"

namespace vscale {
namespace {

// A guest that burns CPU forever on every vCPU: the rival VM that keeps the
// pool contended so the primary's fair share is half the machine.
class BusyGuest : public GuestOs {
 public:
  BusyGuest(Machine& m, DomainId dom) {
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
};

// Pure busy-wait threads: all their obtainment is waste, so the daemon's useful-
// obtainment guard lets the VM pack to its extendability.
class SpinnyBody : public ThreadBody {
 public:
  explicit SpinnyBody(int flag) : flag_(flag) {}
  Op Next(GuestKernel&, GuestThread&) override {
    return Op::SpinFlagWait(flag_, 1);
  }

 private:
  int flag_;
};

// The full closed loop under contention: 4 pCPUs, a 4-vCPU primary running
// spin-wasting work, a 4-vCPU rival burning everything it gets. Fair share = 2
// pCPUs each, so the fault-free steady state is 2 online vCPUs in the primary.
struct ChaosRig {
  explicit ChaosRig(const char* spec) {
    MachineConfig mc;
    mc.n_pcpus = 4;
    machine = std::make_unique<Machine>(mc);
    Domain& prime = machine->CreateDomain("primary", 1024, 4);
    Domain& rd = machine->CreateDomain("rival", 1024, 4);
    kernel = std::make_unique<GuestKernel>(*machine, machine->sim(), prime,
                                           GuestConfig{});
    rival = std::make_unique<BusyGuest>(*machine, rd.id());
    const int flag = kernel->CreateSpinFlag();
    for (int i = 0; i < 4; ++i) {
      bodies.push_back(std::make_unique<SpinnyBody>(flag));
      kernel->Spawn("spin" + std::to_string(i), bodies.back().get());
    }
    FaultPlan plan;
    std::string error;
    EXPECT_TRUE(ParseFaultPlan(spec, &plan, &error)) << error;
    injector = std::make_unique<FaultInjector>(machine->sim(), plan);
    injector->on_transition = [this](const FaultEvent& ev, bool) {
      if (ev.kind == FaultKind::kStealBurst) {
        const bool active = injector->Active(FaultKind::kStealBurst);
        machine->SetStolenPcpus(
            active ? static_cast<int>(injector->Magnitude(FaultKind::kStealBurst))
                   : 0);
      }
    };
    injector->Arm();
    ticker = std::make_unique<ExtendabilityTicker>(*machine);
    ticker->Start();
    daemon = std::make_unique<VscaleDaemon>(*kernel, *machine, DaemonConfig{});
    daemon->set_fault_injector(injector.get());
    daemon->Start();
    watchdog = std::make_unique<VscaleWatchdog>(*kernel, *daemon,
                                                WatchdogConfig{});
    watchdog->Start();
  }

  void RunUntil(TimeNs t) { machine->sim().RunUntil(t); }
  int online() const { return kernel->online_cpus(); }

  // Everything a bit-identical replay must reproduce.
  uint64_t Digest() const {
    StateDigest d;
    d.AbsorbMachine(*machine);
    d.AbsorbGuest(*kernel);
    d.Absorb(daemon->cycles());
    d.Absorb(daemon->read_retries());
    d.Absorb(daemon->apply_retries());
    d.Absorb(daemon->stale_detections());
    d.Absorb(daemon->stale_held_cycles());
    d.Absorb(daemon->degradations());
    d.Absorb(daemon->resumes());
    d.Absorb(daemon->first_degrade_ns());
    d.Absorb(daemon->last_resume_ns());
    d.Absorb(watchdog->trips());
    d.Absorb(watchdog->first_trip_ns());
    d.Absorb(injector->events_started());
    d.Absorb(injector->events_ended());
    return d.value();
  }

  std::unique_ptr<Machine> machine;
  std::unique_ptr<GuestKernel> kernel;
  std::unique_ptr<BusyGuest> rival;
  std::vector<std::unique_ptr<SpinnyBody>> bodies;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<ExtendabilityTicker> ticker;
  std::unique_ptr<VscaleDaemon> daemon;
  std::unique_ptr<VscaleWatchdog> watchdog;
};

// The acceptance plan: staleness, then a stall the watchdog must catch, with
// freeze-op failures frustrating the post-recovery re-shrink.
constexpr char kAcceptancePlan[] =
    "chan-stale@600ms+400ms;stall@1500ms+800ms;freeze-fail@2300ms+500ms";

TEST(ChaosTest, FaultFreeRunConvergesAndStaysHealthy) {
  ViolationCapture capture;
  ChaosRig rig("");
  rig.RunUntil(Milliseconds(500));
  EXPECT_EQ(rig.online(), 2);  // fair share of a 4-pCPU pool split two ways
  rig.RunUntil(Seconds(2));
  EXPECT_EQ(rig.online(), 2);
  EXPECT_EQ(rig.daemon->degradations(), 0);
  EXPECT_EQ(rig.daemon->stale_detections(), 0);
  EXPECT_EQ(rig.watchdog->trips(), 0);
  EXPECT_EQ(rig.daemon->read_retries(), 0);
  EXPECT_TRUE(capture.reports().empty());
}

TEST(ChaosTest, AcceptanceScenarioDetectsDegradesAndReconverges) {
  ViolationCapture capture;
  ChaosRig rig(kAcceptancePlan);

  rig.RunUntil(Milliseconds(500));
  ASSERT_EQ(rig.online(), 2) << "must converge before the faults start";

  // Stale window (600-1000 ms): seq wedged -> detect, hold, never degrade.
  rig.RunUntil(Milliseconds(1400));
  EXPECT_GE(rig.daemon->stale_detections(), 1);
  EXPECT_GT(rig.daemon->stale_held_cycles(), 0);
  EXPECT_EQ(rig.daemon->degradations(), 0);
  EXPECT_EQ(rig.online(), 2);

  // Stall (1500-2300 ms): heartbeat dies; the watchdog must trip within its
  // deadline (8 missed cycles = 80 ms, +1 check period) and force the floor.
  rig.RunUntil(Milliseconds(2200));
  ASSERT_EQ(rig.watchdog->trips(), 1);
  EXPECT_LE(rig.watchdog->first_trip_ns() - Milliseconds(1500),
            Milliseconds(100));
  EXPECT_EQ(rig.online(), 4);  // safe floor = all vCPUs
  EXPECT_TRUE(rig.daemon->degraded());

  // Recovery: daemon heartbeats again at 2300 ms, resumes after its healthy
  // streak, and re-shrinks — through a window of failing freeze ops.
  rig.RunUntil(Milliseconds(3500));
  EXPECT_GE(rig.watchdog->recoveries(), 1);
  EXPECT_GE(rig.daemon->resumes(), 1);
  EXPECT_FALSE(rig.daemon->degraded());
  EXPECT_GT(rig.daemon->balancer().op_failures(), 0);
  EXPECT_EQ(rig.online(), 2) << "must re-converge to the fault-free steady state";
  EXPECT_TRUE(capture.reports().empty());
}

TEST(ChaosTest, AcceptanceScenarioReplaysBitIdentically) {
  auto run = [] {
    ChaosRig rig(kAcceptancePlan);
    rig.RunUntil(Milliseconds(3500));
    return rig.Digest();
  };
  EXPECT_EQ(run(), run());
}

TEST(ChaosTest, CrashAndStealCompoundRecoversToo) {
  ViolationCapture capture;
  ChaosRig rig("crash@800ms+400ms;steal@2s+300ms*1");
  rig.RunUntil(Milliseconds(700));
  ASSERT_EQ(rig.online(), 2);
  rig.RunUntil(Milliseconds(1150));
  EXPECT_EQ(rig.daemon->crashes(), 1);
  EXPECT_EQ(rig.watchdog->trips(), 1);  // a crashed daemon misses heartbeats too
  EXPECT_EQ(rig.online(), 4);
  rig.RunUntil(Seconds(3));
  EXPECT_EQ(rig.daemon->restarts(), 1);
  EXPECT_GT(rig.machine->total_stolen_ns(), Milliseconds(250));
  EXPECT_EQ(rig.online(), 2);
  EXPECT_TRUE(capture.reports().empty());
}

// A minimal rig for the guest-interior delivery fault domain: one busy vCPU,
// one idle vCPU (the wedging freeze target — a running target self-evacuates
// at its next boundary regardless of the IPI), and a fault plan on the
// kernel's notification seam. No daemon: the handshake is driven directly so
// the freeze lands at a known instant inside the fault window.
struct DeliveryRig {
  DeliveryRig(const char* spec, GuestConfig gc, bool with_reconciler) {
    MachineConfig mc;
    mc.n_pcpus = 2;
    machine = std::make_unique<Machine>(mc);
    Domain& prime = machine->CreateDomain("vm", 512, 2);
    kernel = std::make_unique<GuestKernel>(*machine, machine->sim(), prime, gc);
    flag = kernel->CreateSpinFlag();
    body = std::make_unique<SpinnyBody>(flag);
    kernel->Spawn("spin", body.get(), ThreadType::kUthread, /*pinned_cpu=*/0);
    FaultPlan plan;
    std::string error;
    EXPECT_TRUE(ParseFaultPlan(spec, &plan, &error)) << error;
    injector = std::make_unique<FaultInjector>(machine->sim(), plan);
    injector->on_transition = [this](const FaultEvent& ev, bool began) {
      kernel->OnFaultTransition(ev, began);
    };
    kernel->set_fault_injector(injector.get());
    injector->Arm();
    if (with_reconciler) {
      reconciler = std::make_unique<VscaleReconciler>(
          *kernel, *machine, /*daemon=*/nullptr, ReconcilerConfig{});
      reconciler->Start();
    }
  }

  void RunUntil(TimeNs t) { machine->sim().RunUntil(t); }
  Domain& dom() { return machine->domain(0); }

  std::unique_ptr<Machine> machine;
  std::unique_ptr<GuestKernel> kernel;
  int flag = -1;
  std::unique_ptr<SpinnyBody> body;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<VscaleReconciler> reconciler;
};

// The regression the freeze_resend hardening exists for: a freeze IPI dropped
// toward an idle vCPU. The resend chain (5 ms doubling backoff) keeps
// re-sending through the drop window and converges shortly after it closes.
TEST(ChaosTest, DroppedFreezeIpiResendChainConverges) {
  ViolationCapture capture;
  GuestConfig gc;
  gc.freeze_resend_ns = Milliseconds(5);
  DeliveryRig rig("ipi-drop@100ms+30ms", gc, /*with_reconciler=*/false);
  rig.machine->sim().ScheduleAt(Milliseconds(110), [&rig] {
    rig.kernel->cpu(0).pending_kernel_ns += rig.kernel->FreezeCpu(1);
  });
  // Mid-window: the original IPI (and the first resends) were dropped, the
  // handshake is wedged mid-evacuation.
  rig.RunUntil(Milliseconds(125));
  EXPECT_TRUE(rig.kernel->IsFrozen(1));
  EXPECT_TRUE(rig.kernel->cpu(1).evacuate_pending);
  EXPECT_GT(rig.kernel->delivery_drops(), 0);
  // The chain escapes the window (110+5+10+20 = 145 ms) and converges well
  // inside the watchdog deadline.
  rig.RunUntil(Milliseconds(400));
  EXPECT_TRUE(rig.kernel->IsFrozen(1));
  EXPECT_FALSE(rig.kernel->cpu(1).evacuate_pending);
  EXPECT_GE(rig.kernel->freeze_resends(), 2);
  EXPECT_EQ(rig.kernel->freeze_mask(), rig.dom().hv_freeze_mask());
  EXPECT_EQ(rig.dom().vcpu(1).state(), VcpuState::kBlocked);
  EXPECT_TRUE(capture.reports().empty());
}

// Pin the stock exposure the hardening closes: without resend (and without a
// reconciler) the same dropped freeze IPI wedges the handshake forever.
TEST(ChaosTest, StockKernelWedgesOnDroppedFreezeIpi) {
  ViolationCapture capture;
  DeliveryRig rig("ipi-drop@100ms+30ms", GuestConfig{},
                  /*with_reconciler=*/false);
  rig.machine->sim().ScheduleAt(Milliseconds(110), [&rig] {
    rig.kernel->cpu(0).pending_kernel_ns += rig.kernel->FreezeCpu(1);
  });
  rig.RunUntil(Seconds(2));
  EXPECT_TRUE(rig.kernel->IsFrozen(1));
  EXPECT_TRUE(rig.kernel->cpu(1).evacuate_pending) << "stock must still wedge "
      "(if this converges, the bench's negative control is stale too)";
  EXPECT_EQ(rig.kernel->freeze_resends(), 0);
  EXPECT_TRUE(capture.reports().empty());
}

// Tri-state reconciler, divergence-repair leg: the hypervisor's freeze mask is
// perturbed mid-run (as a lost/garbled SCHEDOP_freezecpu would) so guest and
// hypervisor disagree; the reconciler must detect within one audit period,
// repair after grace by re-issuing the hypercall, and count the convergence.
TEST(ChaosTest, ReconcilerRepairsPerturbedHvFreezeMask) {
  ViolationCapture capture;
  DeliveryRig rig("", GuestConfig{}, /*with_reconciler=*/true);
  rig.RunUntil(Milliseconds(50));
  rig.kernel->cpu(0).pending_kernel_ns += rig.kernel->FreezeCpu(1);
  rig.RunUntil(Milliseconds(100));
  ASSERT_FALSE(rig.kernel->cpu(1).evacuate_pending);
  ASSERT_EQ(rig.kernel->freeze_mask(), rig.dom().hv_freeze_mask());
  ASSERT_EQ(rig.reconciler->divergence_detected(), 0);

  // Tear the views apart: the hypervisor now believes vCPU1 is unfrozen while
  // the guest's cpu_freeze_mask still has it frozen.
  rig.machine->NotifyFreeze(rig.dom().id(), 1, false);
  ASSERT_NE(rig.kernel->freeze_mask(), rig.dom().hv_freeze_mask());

  // Detection within one 20 ms audit, repair after the 30 ms grace window.
  rig.RunUntil(Milliseconds(300));
  EXPECT_GE(rig.reconciler->divergence_detected(), 1);
  EXPECT_GE(rig.reconciler->repairs(), 1);
  EXPECT_GE(rig.reconciler->converged(), 1);
  EXPECT_FALSE(rig.reconciler->divergent());
  EXPECT_EQ(rig.kernel->freeze_mask(), rig.dom().hv_freeze_mask());
  EXPECT_TRUE(rig.kernel->IsFrozen(1));
  EXPECT_GT(rig.reconciler->cycles(), 0);
  EXPECT_TRUE(capture.reports().empty());
}

// The same fault machinery through the public Testbed surface, the way
// quickstart --faults drives it.
TEST(ChaosTest, TestbedWiresFaultPlanEndToEnd) {
  ViolationCapture capture;
  TestbedConfig cfg;
  cfg.policy = Policy::kVscale;
  cfg.primary_vcpus = 4;
  cfg.pool_pcpus = 4;
  std::string error;
  ASSERT_TRUE(
      ParseFaultPlan("stall@500ms+300ms;steal@1s+200ms*1", &cfg.faults, &error))
      << error;
  Testbed bed(cfg);
  ASSERT_NE(bed.faults(), nullptr);
  ASSERT_NE(bed.watchdog(), nullptr);
  bed.sim().RunUntil(Seconds(2));
  EXPECT_EQ(bed.faults()->events_started(), 2);
  EXPECT_EQ(bed.faults()->events_ended(), 2);
  EXPECT_GE(bed.watchdog()->trips(), 1);
  EXPECT_GE(bed.watchdog()->recoveries(), 1);
  EXPECT_GT(bed.machine().total_stolen_ns(), Milliseconds(150));
  EXPECT_EQ(bed.machine().stolen_pcpus(), 0);  // burst over, pCPU returned
  EXPECT_TRUE(capture.reports().empty());
}

}  // namespace
}  // namespace vscale
