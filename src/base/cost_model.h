// Calibrated micro-cost constants for the simulated Xen/Linux stack.
//
// The values marked "paper" are taken from the vScale paper's own measurements
// (Tables 1-3, Figures 4-5, and the Xen defaults quoted in its sections 1-4); they
// parameterize the simulation so scheduling-delay magnitudes match the evaluated
// testbed (2x quad-core Xeon 5540, Xen 4.5.0, Linux 3.14.15).

#ifndef VSCALE_SRC_BASE_COST_MODEL_H_
#define VSCALE_SRC_BASE_COST_MODEL_H_

#include "src/base/time.h"

namespace vscale {

struct CostModel {
  // --- Hypervisor scheduler (Xen credit1 defaults; paper section 1 and 4.2) ---
  TimeNs hv_time_slice = Milliseconds(30);        // Xen default slice
  TimeNs hv_tick_period = Milliseconds(10);       // credit burn tick
  TimeNs hv_accounting_period = Milliseconds(30); // csched_acct
  TimeNs vscale_recalc_period = Milliseconds(10); // vscale_ticker_fn default (paper 4.2)
  TimeNs hv_ratelimit = Microseconds(1000);       // Xen sched_ratelimit_us default

  // --- vScale channel (paper Table 1) ---
  TimeNs channel_syscall = Nanoseconds(690);   // sys_getvscaleinfo
  TimeNs channel_hypercall = Nanoseconds(220); // SCHEDOP_getvscaleinfo

  // --- vScale balancer, master-side breakdown (paper Table 3) ---
  TimeNs freeze_syscall = Nanoseconds(690);
  TimeNs freeze_lock = Nanoseconds(60);
  TimeNs freeze_mask_update = Nanoseconds(30);
  TimeNs freeze_group_power_update = Nanoseconds(120);
  TimeNs freeze_hypercall = Nanoseconds(220);
  TimeNs freeze_resched_ipi = Nanoseconds(980);
  // Target-side per-entity costs (paper Table 3: 0.9-1.1us / thread, 0.8-1.2us / IRQ).
  TimeNs migrate_thread_min = Nanoseconds(900);
  TimeNs migrate_thread_max = Nanoseconds(1100);
  TimeNs migrate_irq_min = Nanoseconds(800);
  TimeNs migrate_irq_max = Nanoseconds(1200);

  // --- Guest kernel (Linux 3.14-era) ---
  TimeNs guest_tick_period = Milliseconds(1);  // 1000 HZ (paper Table 2)
  TimeNs guest_tick_cost = Microseconds(1);    // tick handler work
  TimeNs guest_sched_slice = Milliseconds(3);  // CFS-like slice at low task counts
  TimeNs guest_context_switch = Microseconds(2);
  TimeNs futex_wait_cost = Microseconds(2);    // syscall + enqueue
  TimeNs futex_wake_cost = Microseconds(1);
  TimeNs ipi_deliver_cost = Microseconds(1);   // interrupt entry on a running vCPU
  TimeNs irq_handle_cost = Microseconds(4);    // external I/O interrupt service
  TimeNs spin_check_cost = Nanoseconds(10);    // one spin-loop iteration (cpu_relax)

  // --- pv-spinlock / pv-futex style spin-then-yield (paper section 2.2) ---
  TimeNs pvlock_spin_budget = Microseconds(30); // spin before yielding to hypervisor
  TimeNs pvlock_kick_cost = Microseconds(2);    // hypercall to kick a yielded waiter

  // --- dom0/libxl centralized monitoring baseline (paper Figure 4) ---
  TimeNs libxl_per_vm_read = Microseconds(480); // xenstore+hypercall path when dom0 idle
  TimeNs libxl_disk_io_penalty_mean = Microseconds(45);  // extra queueing per VM read
  TimeNs libxl_net_io_penalty_mean = Microseconds(75);

  // --- Linux CPU hotplug baseline (paper Figure 5) ---
  // Modeled per kernel version as log-normal(median, sigma) + a floor; see
  // hypervisor/hotplug_model.h.
};

// The default model mirrors the paper's testbed.
inline const CostModel& DefaultCostModel() {
  static const CostModel model;
  return model;
}

}  // namespace vscale

#endif  // VSCALE_SRC_BASE_COST_MODEL_H_
