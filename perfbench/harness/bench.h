// Shared pieces of the three benchmark workloads: what a pass of fixed work
// yields, the per-layer counters read from public accessors at unit end, and
// the workload interface main.cc drives.

#ifndef PERFBENCH_HARNESS_BENCH_H_
#define PERFBENCH_HARNESS_BENCH_H_

#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "harness/spans.h"
#include "src/metrics/state_digest.h"
#include "src/obs/stall_accounting.h"
#include "src/workloads/testbed.h"

namespace perfbench {

// Independent 64-bit seed for input `salt` of workload seed `seed` (splitmix64).
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

// The primary VM's stall buckets the traced run reports, in print order.
inline constexpr vscale::StallBucket kStallBuckets[] = {
    vscale::StallBucket::kRunnableWaitingPcpu, vscale::StallBucket::kLhpSpinning,
    vscale::StallBucket::kFutexBlocked, vscale::StallBucket::kIpiInFlight,
    vscale::StallBucket::kFrozen};
inline constexpr int kStallReported = static_cast<int>(std::size(kStallBuckets));

// Counts summed over the testbeds of one pass.
struct LayerCounts {
  int64_t testbeds = 0;
  int64_t sim_events = 0;
  int64_t context_switches = 0;
  int64_t boost_grants = 0;
  int64_t primary_wait_ns = 0;
  int64_t resched_ipis = 0;
  int64_t io_irqs = 0;
  int64_t timer_ints = 0;
  int64_t daemon_cycles = 0;
  int64_t freezes = 0;
  int64_t unfreezes = 0;
  int64_t channel_reads = 0;
  int64_t stall_ns[kStallReported] = {};

  // Reads `bed`'s cumulative counters; call at unit end, before destruction.
  void AddTestbed(vscale::Testbed& bed);
};

// Call once a testbed is destroyed: folds the stall accountant's primary-VM
// buckets into `counts` when `traced` armed it, then drops the accountant's
// and the metrics registry's per-run state so a long run stays flat in memory.
void CloseTestbed(SpanRecorder& rec, bool traced, LayerCounts& counts);

// What one pass of a workload's fixed work produced.
struct Pass {
  int64_t wall_ns = 0;
  std::vector<double> unit_ms;  // host ms per timed unit
  int64_t sim_ns = 0;           // simulated time advanced, summed over testbeds
  int64_t attempted = 0;        // timed units
  int64_t failed = 0;           // timed units whose output check failed
  int64_t traced_only_ns = 0;   // host time spent on work only a traced pass does
  vscale::StateDigest digest;   // folded from each unit's digest, in order
  LayerCounts counts;
};

// Times one unit: its host wall time lands in pass.unit_ms when `timed`, and
// a unit-root span named `name` covers it when spans are being recorded.
class UnitScope {
 public:
  UnitScope(Pass& pass, SpanRecorder& rec, const char* name, bool timed);
  ~UnitScope();
  UnitScope(const UnitScope&) = delete;
  UnitScope& operator=(const UnitScope&) = delete;

 private:
  Pass& pass_;
  SpanRecorder& rec_;
  bool timed_;
  int span_;
  int64_t start_ns_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // What one timed unit is, for the printed report.
  virtual const char* unit_name() const = 0;
  // Untimed set-up before the first timed unit: input generation and warm-up.
  virtual void Setup() = 0;
  // One pass of the fixed work. `traced` also arms the observers whose output
  // only the per-layer report needs (stall accounting, soak replays).
  virtual Pass RunPass(SpanRecorder& rec, bool traced) = 0;
  // Prints the modelled outcomes of the first pass beside their references
  // and runs the workload's output checks; false if one failed.
  virtual bool Report() = 0;
};

std::unique_ptr<Workload> MakeNpbWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeWebWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeSoakWorkload(uint64_t seed);

// fuzz.generate / fuzz.oracle spans on `count` scenarios derived from `seed`,
// as "probe" units outside any pass, so the fuzz layer's per-call cost is
// reported on every workload. False if a scenario's verdict is not pass.
bool RunFuzzProbe(SpanRecorder& rec, uint64_t seed, int count);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_BENCH_H_
