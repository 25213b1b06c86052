// Chaos recovery bench: how fast the hardened control plane notices a fault and
// how fast it gets back to the fault-free steady state (docs/FAULTS.md).
//
// One row per fault plan on the standard contended rig (4 pCPUs, a 4-vCPU
// spin-wasting primary packed to 2 vCPUs, a rival VM holding the other half):
//
//   detect (ms)   first alarm minus fault start — watchdog trip for silent
//                 faults (stall, crash), daemon self-degrade for loud ones
//                 (persistent read failure)
//   recover (ms)  daemon resume minus fault end: how long after the fault
//                 clears until normal scaling is re-earned
//
// Everything is deterministic: two invocations print identical tables.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/base/table.h"
#include "src/faults/fault_injector.h"
#include "src/faults/fault_plan.h"
#include "src/guest/kernel.h"
#include "src/hypervisor/machine.h"
#include "src/vscale/daemon.h"
#include "src/vscale/reconciler.h"
#include "src/vscale/ticker.h"
#include "src/vscale/watchdog.h"

using namespace vscale;

namespace {

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

class SpinnyBody : public ThreadBody {
 public:
  explicit SpinnyBody(int flag) : flag_(flag) {}
  Op Next(GuestKernel&, GuestThread&) override {
    return Op::SpinFlagWait(flag_, 1);
  }

 private:
  int flag_;
};

struct PlanSpec {
  const char* name;
  const char* spec;
  TimeNs fault_start;  // start of the fault the alarm should catch
  TimeNs fault_end;
  bool watchdog_detects;  // silent fault (alarm = watchdog trip) vs loud
                          // (alarm = daemon self-degrade)
};

struct Outcome {
  TimeNs detect = 0;
  TimeNs recover = 0;
  int64_t trips = 0;
  int64_t degradations = 0;
  int64_t resumes = 0;
  int64_t stale_held = 0;
  int64_t read_retries = 0;
  int online_end = 0;
};

Outcome RunPlan(const PlanSpec& p, const Observers& obs) {
  MachineConfig mc;
  mc.n_pcpus = 4;
  mc.observers = obs;
  Machine machine(mc);
  Domain& prime = machine.CreateDomain("primary", 1024, 4);
  Domain& rd = machine.CreateDomain("rival", 1024, 4);
  GuestKernel kernel(machine, machine.sim(), prime, GuestConfig{});
  BusyGuest rival(machine, rd.id());
  const int flag = kernel.CreateSpinFlag();
  std::vector<std::unique_ptr<SpinnyBody>> bodies;
  for (int i = 0; i < 4; ++i) {
    bodies.push_back(std::make_unique<SpinnyBody>(flag));
    kernel.Spawn("spin" + std::to_string(i), bodies.back().get());
  }
  FaultPlan plan;
  std::string error;
  if (!ParseFaultPlan(p.spec, &plan, &error)) {
    std::fprintf(stderr, "bench_chaos_recovery: %s: %s\n", p.name,
                 error.c_str());
    std::exit(2);
  }
  FaultInjector injector(machine.sim(), plan);
  injector.Arm();
  ExtendabilityTicker ticker(machine);
  ticker.Start();
  VscaleDaemon daemon(kernel, machine, DaemonConfig{});
  daemon.set_fault_injector(&injector);
  daemon.Start();
  VscaleWatchdog watchdog(kernel, daemon, WatchdogConfig{});
  watchdog.Start();

  machine.sim().RunUntil(p.fault_end + Milliseconds(1500));

  Outcome out;
  const TimeNs alarm =
      p.watchdog_detects ? watchdog.first_trip_ns() : daemon.first_degrade_ns();
  out.detect = alarm > 0 ? alarm - p.fault_start : -1;
  out.recover =
      daemon.last_resume_ns() > 0 ? daemon.last_resume_ns() - p.fault_end : -1;
  out.trips = watchdog.trips();
  out.degradations = daemon.degradations();
  out.resumes = daemon.resumes();
  out.stale_held = daemon.stale_held_cycles();
  out.read_retries = daemon.read_retries();
  out.online_end = kernel.online_cpus();
  return out;
}

const PlanSpec kPlans[] = {
    {"daemon stall", "stall@1s+800ms", Seconds(1), Milliseconds(1800), true},
    {"daemon crash", "crash@1s+600ms", Seconds(1), Milliseconds(1600), true},
    {"channel read failure", "chan-fail@1s+600ms", Seconds(1),
     Milliseconds(1600), false},
    {"stale then stall", "chan-stale@600ms+400ms;stall@1500ms+800ms",
     Milliseconds(1500), Milliseconds(2300), true},
    {"stall into freeze-fail",
     "stall@1s+800ms;freeze-fail@1800ms+500ms", Seconds(1), Milliseconds(1800),
     true},
};

std::string Ms(TimeNs t) {
  if (t < 0) {
    return "-";
  }
  return TextTable::Num(static_cast<double>(t) / 1e6, 1);
}

// ---------------------------------------------------------------------------
// Delivery fault domain rows (docs/FAULTS.md): how the freeze handshake
// behaves when its vIPIs are dropped, duplicated, delayed or masked — stock
// kernel vs the delivery-hardened one (ipi_dedup + freeze_resend + tick_rescue
// + reconciler).
//
// The rig drives the handshake directly instead of through the daemon so the
// freeze lands at a known instant inside the fault window: two idle vCPUs are
// frozen mid-window (an idle target is the wedging case — a running one
// self-evacuates at its next boundary regardless of the IPI). The run then
// samples the tri-state every virtual millisecond:
//
//   detect (ms)      reconciler's first divergence minus the freeze instant
//                    ('-' when the handshake completed between audits, or stock)
//   reconverge (ms)  first instant the tri-state is clean again (guest and
//                    hypervisor freeze masks agree, no evacuation pending)
//                    minus the freeze instant; '-' means wedged to the horizon

struct DeliverySpec {
  const char* name;
  const char* spec;    // fault plan covering the freeze instant
  TimeNs freeze_at;    // when the two idle vCPUs are frozen
  TimeNs fault_end;
};

struct DeliveryOutcome {
  TimeNs detect = -1;      // reconciler first divergence - freeze_at
  TimeNs reconverge = -1;  // tri-state clean again - freeze_at; -1 = wedged
  int64_t repairs = 0;
  int64_t resends = 0;
  int64_t faulted = 0;     // deliveries dropped + duplicated + delayed + coalesced
};

// The three views the reconciler audits, sampled from outside the run: the
// guest's cpu_freeze_mask, the hypervisor's frozen bits, and the handshake
// completion (no evacuation still pending).
bool TriStateClean(const GuestKernel& kernel, const Domain& dom) {
  if (kernel.freeze_mask() != dom.hv_freeze_mask()) {
    return false;
  }
  for (int i = 0; i < kernel.n_cpus(); ++i) {
    if (kernel.cpu(i).evacuate_pending) {
      return false;
    }
  }
  return true;
}

DeliveryOutcome RunDelivery(const DeliverySpec& p, bool hardened,
                            const Observers& obs) {
  MachineConfig mc;
  mc.n_pcpus = 4;
  mc.observers = obs;
  Machine machine(mc);
  Domain& prime = machine.CreateDomain("primary", 1024, 4);
  Domain& rd = machine.CreateDomain("rival", 1024, 4);
  GuestConfig gc;
  if (hardened) {
    gc.ipi_dedup = true;
    gc.freeze_resend_ns = Milliseconds(5);
    gc.tick_rescue = true;
  }
  GuestKernel kernel(machine, machine.sim(), prime, gc);
  BusyGuest rival(machine, rd.id());
  // Two spinners keep vCPUs 0/1 busy; vCPUs 2/3 idle-block at the hypervisor
  // and become the freeze targets.
  const int flag = kernel.CreateSpinFlag();
  std::vector<std::unique_ptr<SpinnyBody>> bodies;
  for (int i = 0; i < 2; ++i) {
    bodies.push_back(std::make_unique<SpinnyBody>(flag));
    kernel.Spawn("spin" + std::to_string(i), bodies.back().get());
  }
  FaultPlan plan;
  std::string error;
  if (!ParseFaultPlan(p.spec, &plan, &error)) {
    std::fprintf(stderr, "bench_chaos_recovery: %s: %s\n", p.name,
                 error.c_str());
    std::exit(2);
  }
  FaultInjector injector(machine.sim(), plan);
  injector.on_transition = [&kernel](const FaultEvent& ev, bool began) {
    kernel.OnFaultTransition(ev, began);  // port-mask flush at window close
  };
  kernel.set_fault_injector(&injector);
  injector.Arm();
  std::unique_ptr<VscaleReconciler> reconciler;
  if (hardened) {
    reconciler = std::make_unique<VscaleReconciler>(
        kernel, machine, /*daemon=*/nullptr, ReconcilerConfig{});
    reconciler->Start();
  }
  machine.sim().ScheduleAt(p.freeze_at, [&kernel] {
    // Master-context freeze of the two idle vCPUs, charged like the daemon
    // charges it: onto vCPU0's kernel backlog.
    kernel.cpu(0).pending_kernel_ns += kernel.FreezeCpu(2);
    kernel.cpu(0).pending_kernel_ns += kernel.FreezeCpu(3);
  });

  // March the clock in 1 ms samples (sampling schedules nothing, so it cannot
  // perturb event timing) and record the first clean instant post-freeze.
  DeliveryOutcome out;
  const TimeNs horizon = p.fault_end + Milliseconds(1500);
  for (TimeNs t = p.freeze_at + Milliseconds(1); t <= horizon;
       t += Milliseconds(1)) {
    machine.sim().RunUntil(t);
    if (TriStateClean(kernel, prime)) {
      out.reconverge = t - p.freeze_at;
      break;
    }
  }
  machine.sim().RunUntil(horizon);

  if (reconciler != nullptr && reconciler->first_divergence_ns() > 0) {
    out.detect = reconciler->first_divergence_ns() - p.freeze_at;
    out.repairs = reconciler->repairs();
  }
  out.resends = kernel.freeze_resends();
  out.faulted = kernel.delivery_drops() + kernel.delivery_dups() +
                kernel.delivery_delays() + kernel.delivery_coalesced();
  return out;
}

const DeliverySpec kDeliveryPlans[] = {
    {"ipi-drop", "ipi-drop@200ms+600ms", Milliseconds(300), Milliseconds(800)},
    {"ipi-dup x3", "ipi-dup@200ms+600ms*3", Milliseconds(300),
     Milliseconds(800)},
    {"ipi-delay x20", "ipi-delay@200ms+600ms*20", Milliseconds(300),
     Milliseconds(800)},
    {"port-mask (freeze)", "port-mask@200ms+600ms*2", Milliseconds(300),
     Milliseconds(800)},
};

// --check bounds (CI gate): the hardened kernel must reconverge promptly for
// every delivery fault kind, the reconciler must notice a wedging drop within
// its audit cadence, and the stock kernel must actually exhibit the failure
// the hardening exists for (wedge on drop, window-long coalesce on mask) —
// otherwise the bench is measuring a fault that no longer bites.
constexpr TimeNs kCheckReconvergeBound = Milliseconds(250);
constexpr TimeNs kCheckDetectBound = Milliseconds(50);

int CheckDelivery(const Observers& obs) {
  int failures = 0;
  const auto fail = [&failures](const char* plan, const std::string& what) {
    std::printf("FAIL  %-20s %s\n", plan, what.c_str());
    ++failures;
  };
  for (const DeliverySpec& p : kDeliveryPlans) {
    const DeliveryOutcome hard = RunDelivery(p, /*hardened=*/true, obs);
    const DeliveryOutcome stock = RunDelivery(p, /*hardened=*/false, obs);
    if (hard.reconverge < 0 || hard.reconverge > kCheckReconvergeBound) {
      fail(p.name, "hardened MTTR " + Ms(hard.reconverge) + " ms, bound " +
                       Ms(kCheckReconvergeBound) + " ms");
    }
    const bool wedging = std::string(p.spec).rfind("ipi-drop", 0) == 0 ||
                         std::string(p.spec).rfind("port-mask", 0) == 0;
    if (wedging &&
        (hard.detect < 0 || hard.detect > kCheckDetectBound)) {
      fail(p.name, "reconciler detect " + Ms(hard.detect) + " ms, bound " +
                       Ms(kCheckDetectBound) + " ms");
    }
    if (std::string(p.spec).rfind("ipi-drop", 0) == 0 && stock.reconverge >= 0) {
      fail(p.name, "stock kernel reconverged at " + Ms(stock.reconverge) +
                       " ms — the drop no longer wedges the handshake");
    }
    if (std::string(p.spec).rfind("port-mask", 0) == 0 &&
        stock.reconverge >= 0 &&
        stock.reconverge < p.fault_end - p.freeze_at) {
      fail(p.name, "stock kernel reconverged at " + Ms(stock.reconverge) +
                       " ms, before the mask window closed — coalescing "
                       "no longer holds the handshake");
    }
  }
  if (failures == 0) {
    std::printf("chaos recovery --check: all delivery-fault gates hold\n");
  }
  return failures == 0 ? 0 : 1;
}

void PrintDeliveryTable(const Observers& obs) {
  std::printf(
      "\nDelivery fault domain: freeze handshake under lossy vIPIs\n"
      "(two idle vCPUs frozen at t=300ms inside a 200..800ms fault window;\n"
      " detect = reconciler first divergence - freeze, reconverge = tri-state\n"
      " clean - freeze. Hardened = ipi_dedup + 5ms freeze_resend + tick_rescue\n"
      " + reconciler; stock = none)\n\n");
  TextTable table({"fault plan", "mode", "detect (ms)", "reconverge (ms)",
                   "repairs", "resends", "faulted deliveries"});
  for (const DeliverySpec& p : kDeliveryPlans) {
    for (const bool hardened : {false, true}) {
      const DeliveryOutcome out = RunDelivery(p, hardened, obs);
      table.AddRow({p.name, hardened ? "hardened" : "stock", Ms(out.detect),
                    Ms(out.reconverge),
                    TextTable::Num(static_cast<double>(out.repairs), 0),
                    TextTable::Num(static_cast<double>(out.resends), 0),
                    TextTable::Num(static_cast<double>(out.faulted), 0)});
    }
  }
  table.Print();
  std::printf(
      "\nA dropped freeze IPI wedges the stock handshake forever (reconverge\n"
      "'-'); the hardened kernel's reconciler notices within one audit period\n"
      "and re-kicks through the hypercall channel, which an in-guest drop or\n"
      "mask window cannot touch. Duplicates and delays are absorbed/deferred\n"
      "and reconverge on their own; the masked freeze port coalesces until the\n"
      "window's flush unless the reconciler repairs it first.\n");
}

}  // namespace

int main(int argc, char** argv) {
  BenchTraceScope scope(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--check") {
      // CI mode: run only the delivery-fault gates, exit non-zero on any miss.
      return CheckDelivery(scope.observers());
    }
  }
  std::printf("Chaos recovery: fault detection latency and time-to-recover\n");
  std::printf("(4 pCPUs, 4-vCPU spin-wasting primary packed to 2, rival VM; "
              "10 ms poll,\n 80 ms watchdog deadline; detect = alarm - fault "
              "start, recover = resume - fault end)\n\n");

  TextTable table({"fault plan", "detect (ms)", "recover (ms)", "wd trips",
                   "degrades", "resumes", "stale-held", "end vCPUs"});
  for (const PlanSpec& p : kPlans) {
    const Outcome out = RunPlan(p, scope.observers());
    table.AddRow({p.name, Ms(out.detect), Ms(out.recover),
                  TextTable::Num(static_cast<double>(out.trips), 0),
                  TextTable::Num(static_cast<double>(out.degradations), 0),
                  TextTable::Num(static_cast<double>(out.resumes), 0),
                  TextTable::Num(static_cast<double>(out.stale_held), 0),
                  TextTable::Num(static_cast<double>(out.online_end), 0)});
  }
  table.Print();
  std::printf(
      "\nSilent faults (stall, crash) are caught by the watchdog within its\n"
      "deadline and the VM is forced to the safe floor; loud faults (failing\n"
      "reads) self-degrade after the retry budget. Recovery always re-earns\n"
      "the resume confirmations before normal scaling restarts. A crashed\n"
      "daemon reboots with fresh control state instead of resuming (recover\n"
      "'-'): it re-packs the VM through the ordinary confirmation path.\n");
  PrintDeliveryTable(scope.observers());
  return 0;
}
