// StallAccountant: cross-layer time-accounting profiler for the vScale DES.
//
// Answers the attribution question behind the paper's Fig. 1 / Fig. 9
// pathologies: for every simulated nanosecond of a vCPU's life, which layer is
// to blame for it not making progress? The accountant consumes state-transition
// hooks at the same seams the Tracer instruments (hypervisor dispatch/preempt,
// guest spinlock/futex/IPI paths, vScale freeze/unfreeze) and maintains a
// per-vCPU exclusive-state timeline partitioned into eight buckets:
//
//   running               on a pCPU, doing productive (or user-spin) work
//   runnable_waiting_pcpu on a hypervisor runqueue, waiting for a pCPU
//   lhp_spinning          on a pCPU but burning cycles on a kernel spinlock
//                         (the lock-holder-preemption tax)
//   futex_blocked         descheduled because a guest thread futex-slept
//                         (barrier / mutex / condvar slow path)
//   ipi_in_flight         woken by an event channel but not yet dispatched
//                         (the delayed-virtual-IPI window)
//   frozen                parked by the vScale balancer (intentional)
//   stolen                runnable but its pCPU was stolen by the pool manager
//   idle                  blocked with nothing to do
//
// Every nanosecond lands in exactly one bucket; `sum(buckets) == wall_time` is
// enforced at every sampler tick (always counted, VS_INVARIANT under
// VSCALE_CHECKED). Running time is attribution-based — Machine::SettleRunning
// reports elapsed running time, and GuestKernel::Advance reclassifies the
// kernel-spin portion — so the decomposition is exact, not sampled.
//
// Like the Tracer (src/base/trace.h) the accountant is a per-run observer
// (Observers::stall, src/base/observers.h): it never mutates simulation state
// and never touches the RNG, so an observed run produces a bit-identical
// StateDigest to an unobserved one (tools/digest_run --observers-check is the
// gate). Hook sites use VS_OBSERVE(obs, stall, ...), a single branch on the
// run's pointer when no accountant is attached.
//
// State is a dense table indexed [domain id][vCPU id], grown on a vCPU's first
// hook, so every hook is O(1); walks go in (domain, vCPU) order, which fixes
// the order of CSV rows, metrics and stall_dominant.* coverage points.
//
// Outputs: per-domain counter tracks in the Chrome trace, a CSV time series
// (WriteCsv) consumed by tools/stall_report, MetricsRegistry counters
// (PublishMetrics), and three percentile latency histograms — wakeup->dispatch,
// IPI send->delivery, freeze->quiescence. See docs/OBSERVABILITY.md.

#ifndef VSCALE_SRC_OBS_STALL_ACCOUNTING_H_
#define VSCALE_SRC_OBS_STALL_ACCOUNTING_H_

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/observers.h"
#include "src/base/time.h"

namespace vscale {

class MetricsRegistry;

// Exclusive stall buckets. Order is the canonical CSV/report column order.
enum class StallBucket : int {
  kRunning = 0,
  kRunnableWaitingPcpu = 1,
  kLhpSpinning = 2,
  kFutexBlocked = 3,
  kIpiInFlight = 4,
  kFrozen = 5,
  kStolen = 6,
  kIdle = 7,
};

inline constexpr int kStallBucketCount = 8;

// Stable lowercase names ("running", "runnable_waiting_pcpu", ...): used as CSV
// bucket labels, metric path segments and trace counter suffixes.
const char* ToString(StallBucket b);

// Parses a ToString() name back; returns false if `s` is not a bucket name.
bool ParseStallBucket(const std::string& s, StallBucket* out);

// Why a vCPU is about to block, reported by the guest just before it calls
// into BlockVcpu/PollVcpu. Consumed at the next hypervisor desched-to-blocked.
enum class StallBlockReason {
  kIdle,   // nothing runnable (default)
  kFutex,  // a thread futex-slept (barrier/mutex/condvar) or pv-lock halted
};

class StallAccountant {
 public:
  StallAccountant();

  // The process-wide accountant TestbedConfig::stall_accounting attaches, for
  // the benchmark harness that reads it after teardown
  // (perfbench/harness/bench.cc). Every other caller attaches its own.
  // vslint: allow(observer-global, perfbench reads it after each testbed)
  static StallAccountant& Global();

  // Starts accounting a run. Resets per-vCPU state and histograms but keeps
  // previously emitted CSV rows, so several runs (baseline, vscale, ...)
  // accumulate into one series distinguished by `label`. The accountant's own
  // emissions (counter tracks, stall_dominant.* points) go to `run`, the
  // observers of the run it is attached to.
  void BeginRun(const std::string& label, const Observers& run = {});

  // Final flush at `now`: emits per-vCPU totals rows into the CSV series,
  // counts unmatched in-flight IPIs, and ends the run (hooks become no-ops).
  void FinishRun(TimeNs now);

  bool active() const { return active_; }

  // --- hypervisor hooks (src/hypervisor/machine.cc) -------------------------
  void OnVcpuCreated(int dom, int vcpu, TimeNs now);
  void OnDispatch(int dom, int vcpu, TimeNs now);
  // After Machine sets the new state; `to_runnable` false means blocked.
  void OnDesched(int dom, int vcpu, TimeNs now, bool to_runnable);
  void OnWake(int dom, int vcpu, TimeNs now);
  // Elapsed running time attributed by Machine::SettleRunning (called before
  // the guest advances, so OnSpinAdvance below can reclassify a portion).
  void OnRunningAdvance(int dom, int vcpu, TimeNs elapsed);
  void OnFrozenChanged(int dom, int vcpu, TimeNs now, bool frozen);
  // An event channel port was posted to a non-running vCPU (wakeup IPI is now
  // in flight until the next dispatch drains it).
  void OnEventPosted(int dom, int vcpu, TimeNs now);
  // The vCPU was evicted/displaced because its pCPU was stolen from the pool.
  void OnStealDisplaced(int dom, int vcpu, TimeNs now);
  // Guest-reported reason for the imminent block (sticky until the next wake).
  void SetBlockReason(int dom, int vcpu, StallBlockReason reason);

  // --- guest hooks (src/guest/kernel*.cc) -----------------------------------
  // Reclassifies `elapsed` ns of already-attributed running time as kernel
  // spin (lock-holder-preemption tax). Called from GuestKernel::Advance.
  void OnSpinAdvance(int dom, int vcpu, TimeNs elapsed);
  void OnIpiSent(int dom, int vcpu, TimeNs now);      // resched/freeze kicks
  void OnIpiDelivered(int dom, int vcpu, TimeNs now);
  void OnFreezeRequested(int dom, int vcpu, TimeNs now);

  // --- vScale control-plane hook (src/vscale/balancer.cc) -------------------
  void OnApplyTarget(int dom, int target);

  // Deterministic sampler, driven from the end of Machine::HvTick (a
  // pre-existing periodic event, so sampling adds no DES events and cannot
  // perturb the event sequence). Verifies bucket exhaustiveness for every
  // vCPU and, every kSampleEmitPeriod ticks, emits trace counter tracks and
  // a CSV row per domain.
  void Sample(TimeNs now);

  // --- queries / export -----------------------------------------------------
  // 0 for a vCPU that was never hooked (any id, negative ones included).
  int64_t BucketNs(int dom, int vcpu, StallBucket b) const;
  int64_t DomainBucketNs(int dom, StallBucket b) const;
  const LatencyHistogram& wake_to_dispatch() const { return wake_to_dispatch_; }
  const LatencyHistogram& ipi_deliver() const { return ipi_deliver_; }

  // Exhaustiveness check valid at sampler boundaries (every running vCPU
  // settled to `now`): each vCPU's buckets plus its open interval must sum to
  // now - birth. Returns false and fills `error` on the first mismatch.
  bool CheckExhaustive(TimeNs now, std::string* error) const;
  int64_t samples() const { return samples_; }
  // Sampler ticks whose exhaustiveness check failed; 0 in any correct run.
  int64_t exhaustive_failures() const { return exhaustive_failures_; }
  int64_t ipi_unmatched_sends() const { return ipi_unmatched_sends_; }

  // CSV time series, long format:
  //   run,ts_ns,domain,vcpu,bucket,cum_ns
  // vcpu >= 0 rows are final per-vCPU totals (one set per run, at FinishRun);
  // vcpu == -1 rows are the periodic per-domain aggregate samples.
  void WriteCsv(std::ostream& os) const;

  // Publishes the finished run's totals as plain counters under `prefix`:
  //   <prefix>stall.dom<D>.<bucket>_ns            per-domain bucket sums
  //   <prefix>stall.dom<D>.scale_ops              balancer ApplyTarget count
  //   <prefix>stall.lat.<hist>.{count,p50_ns,p95_ns,p99_ns,max_ns}
  void PublishMetrics(MetricsRegistry& registry, const std::string& prefix) const;

  // Clears everything including accumulated CSV rows (tests).
  void Reset();

 private:
  // Coarse hypervisor-visible state; buckets are derived from it plus flags.
  enum class HvState { kRunning, kRunnable, kBlocked };

  struct VcpuAcct {
    bool present = false;  // hooked this run; birth and since are set
    HvState hv_state = HvState::kBlocked;
    bool frozen = false;
    bool pending_event = false;  // wakeup port posted, not yet dispatched
    bool displaced = false;      // evicted by a pCPU steal, still runnable
    StallBlockReason block_reason = StallBlockReason::kIdle;
    StallBucket cur = StallBucket::kIdle;  // open non-running interval bucket
    TimeNs birth = 0;
    TimeNs since = 0;  // start of the open non-running interval
    int64_t buckets[kStallBucketCount] = {};
    TimeNs wake_start = kTimeNever;    // open wakeup->dispatch episode
    TimeNs freeze_start = kTimeNever;  // open freeze->quiescence episode
    std::vector<TimeNs> ipi_sends;     // FIFO of in-flight IPI send stamps
  };

  struct DomAcct {
    std::vector<VcpuAcct> vcpus;  // indexed by vCPU id
    int64_t scale_ops = 0;        // balancer ApplyTarget count
    bool emitted = false;         // counter tracks emitted this run
  };

  // Emit a per-domain CSV/trace sample every Nth HvTick (10ms ticks -> 100ms
  // cadence); the exhaustiveness check still runs every tick.
  static constexpr int64_t kSampleEmitPeriod = 10;

  using BucketTotals = std::array<int64_t, kStallBucketCount>;

  // The vCPU's entry, born at `now` on its first hook; Dom grows the table.
  // Ids are a Domain's and a Vcpu's, so never negative.
  VcpuAcct& Get(int dom, int vcpu, TimeNs now);
  DomAcct& Dom(int dom);
  // Adds the buckets of `d`'s present vCPUs into `t`; false if none is.
  static bool SumDomain(const DomAcct& d, BucketTotals* t);
  // One trace counter per bucket for `dom` at `now`. A domain's first emission
  // in a run is preceded by an all-zero set so cumulative tracks restart
  // explicitly (trace_lint allows stall_* decreases only to zero).
  void EmitCounterTracks(int dom, const BucketTotals& t, TimeNs now);
  static StallBucket DeriveBucket(const VcpuAcct& a);
  // Closes the open non-running interval at `now` (no-op while running).
  void Flush(VcpuAcct& a, TimeNs now);

  bool active_ = false;
  Observers run_;  // the attached run's observers, for the accountant's emissions
  std::string label_;
  std::vector<DomAcct> doms_;  // indexed by domain id
  LatencyHistogram wake_to_dispatch_;
  LatencyHistogram ipi_deliver_;
  LatencyHistogram freeze_quiesce_;
  int64_t samples_ = 0;
  int64_t sample_seq_ = 0;
  int64_t exhaustive_failures_ = 0;
  int64_t ipi_unmatched_sends_ = 0;

  struct CsvRow {
    std::string run;
    TimeNs ts = 0;
    int domain = 0;
    int vcpu = -1;
    int64_t buckets[kStallBucketCount] = {};
  };
  std::vector<CsvRow> rows_;  // survives across runs; cleared by Reset()
};

}  // namespace vscale

#endif  // VSCALE_SRC_OBS_STALL_ACCOUNTING_H_
