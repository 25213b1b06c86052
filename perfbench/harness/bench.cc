#include "harness/bench.h"

#include "src/base/metrics_registry.h"
#include "src/metrics/run_metrics.h"
#include "src/obs/stall_accounting.h"

namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void LayerCounts::AddTestbed(vscale::Testbed& bed) {
  ++testbeds;
  sim_events += static_cast<int64_t>(bed.sim().events_processed());
  context_switches += bed.machine().context_switches();
  boost_grants += bed.machine().boost_grants();
  const vscale::GuestCounters g = vscale::SnapshotCounters(bed.primary());
  primary_wait_ns += g.domain_wait;
  resched_ipis += g.resched_ipis;
  io_irqs += g.io_irqs;
  timer_ints += g.timer_ints;
  if (const vscale::VscaleDaemon* d = bed.daemon()) {
    daemon_cycles += d->cycles();
    freezes += d->balancer().freezes();
    unfreezes += d->balancer().unfreezes();
    channel_reads += d->channel().reads();
  }
}

void CloseTestbed(SpanRecorder& rec, bool traced, LayerCounts& counts) {
  ScopedSpan span(rec, "obs.reset");
  vscale::StallAccountant& acct = vscale::StallAccountant::Global();
  if (traced) {
    for (int i = 0; i < kStallReported; ++i) {
      counts.stall_ns[i] += acct.DomainBucketNs(/*dom=*/0, kStallBuckets[i]);
    }
  }
  acct.Reset();
  vscale::MetricsRegistry::Global().Clear();
}

UnitScope::UnitScope(Pass& pass, SpanRecorder& rec, const char* name, bool timed)
    : pass_(pass), rec_(rec), timed_(timed), span_(rec.Begin(name)), start_ns_(NowNs()) {}

UnitScope::~UnitScope() {
  if (timed_) {
    pass_.unit_ms.push_back(static_cast<double>(NowNs() - start_ns_) / 1e6);
  }
  rec_.End(span_);
}

}  // namespace perfbench
