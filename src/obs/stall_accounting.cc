#include "src/obs/stall_accounting.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <utility>

#include "src/base/check.h"
#include "src/base/metrics_registry.h"
#include "src/base/trace.h"
#include "src/obs/coverage.h"

namespace vscale {

namespace {

// Sends to a parked vCPU can pile up without a delivery; bound the FIFO so a
// pathological run cannot grow memory without bound. Overflow is counted, not
// silently dropped.
constexpr size_t kMaxInFlightIpis = 64;

const char* const kBucketNames[kStallBucketCount] = {
    "running",      "runnable_waiting_pcpu", "lhp_spinning", "futex_blocked",
    "ipi_in_flight", "frozen",               "stolen",       "idle",
};

}  // namespace

const char* ToString(StallBucket b) {
  int i = static_cast<int>(b);
  if (i < 0 || i >= kStallBucketCount) return "invalid";
  return kBucketNames[i];
}

bool ParseStallBucket(const std::string& s, StallBucket* out) {
  for (int i = 0; i < kStallBucketCount; ++i) {
    if (s == kBucketNames[i]) {
      *out = static_cast<StallBucket>(i);
      return true;
    }
  }
  return false;
}

StallAccountant::StallAccountant() = default;

StallAccountant& StallAccountant::Global() {
  // vslint: allow(observer-global, the perfbench-only sink declared in the header)
  static StallAccountant* instance = new StallAccountant();
  return *instance;
}

void StallAccountant::BeginRun(const std::string& label, const Observers& run) {
  run_ = run;
  label_ = label;
  doms_.clear();
  wake_to_dispatch_ = LatencyHistogram();
  ipi_deliver_ = LatencyHistogram();
  freeze_quiesce_ = LatencyHistogram();
  sample_seq_ = 0;
  active_ = true;
}

void StallAccountant::FinishRun(TimeNs now) {
  if (!active_) return;
  std::vector<std::pair<int, BucketTotals>> per_dom;
  for (size_t d = 0; d < doms_.size(); ++d) {
    std::vector<VcpuAcct>& vcpus = doms_[d].vcpus;
    for (size_t v = 0; v < vcpus.size(); ++v) {
      VcpuAcct& a = vcpus[v];
      if (!a.present) continue;
      Flush(a, now);
      ipi_unmatched_sends_ += static_cast<int64_t>(a.ipi_sends.size());
      a.ipi_sends.clear();
      CsvRow row;
      row.run = label_;
      row.ts = now;
      row.domain = static_cast<int>(d);
      row.vcpu = static_cast<int>(v);
      std::copy(std::begin(a.buckets), std::end(a.buckets), row.buckets);
      rows_.push_back(std::move(row));
    }
    BucketTotals totals{};
    if (SumDomain(doms_[d], &totals)) per_dom.emplace_back(static_cast<int>(d), totals);
  }
  for (const auto& [dom, totals] : per_dom) {
    CsvRow row;
    row.run = label_;
    row.ts = now;
    row.domain = dom;
    row.vcpu = -1;
    for (int i = 0; i < kStallBucketCount; ++i) {
      row.buckets[i] = totals[static_cast<size_t>(i)];
    }
    rows_.push_back(std::move(row));
    // Coverage: the bucket that dominated this domain's wall time is a
    // semantic feature of the run (ties break toward the earlier bucket,
    // deterministically). Pure observation of already-final totals.
    int best = 0;
    for (int i = 1; i < kStallBucketCount; ++i) {
      if (totals[static_cast<size_t>(i)] > totals[static_cast<size_t>(best)]) {
        best = i;
      }
    }
    if (totals[static_cast<size_t>(best)] > 0) {
      VS_OBSERVE(run_, coverage, OnStallDominant(static_cast<StallBucket>(best)));
    }
  }
  active_ = false;
  run_ = {};
}

// Inline: out of line, GCC kept it a call from Get, which every hook makes.
inline StallAccountant::DomAcct& StallAccountant::Dom(int dom) {
  VS_INVARIANT(dom >= 0, "stall hook for negative domain id %d", dom);
  const size_t d = static_cast<size_t>(dom);
  if (d >= doms_.size()) doms_.resize(d + 1);
  return doms_[d];
}

StallAccountant::VcpuAcct& StallAccountant::Get(int dom, int vcpu, TimeNs now) {
  VS_INVARIANT(vcpu >= 0, "stall hook for dom %d negative vcpu id %d", dom, vcpu);
  std::vector<VcpuAcct>& vcpus = Dom(dom).vcpus;
  const size_t v = static_cast<size_t>(vcpu);
  if (v >= vcpus.size()) vcpus.resize(v + 1);
  VcpuAcct& a = vcpus[v];
  if (!a.present) {
    a.present = true;
    a.birth = now;
    a.since = now;
  }
  return a;
}

bool StallAccountant::SumDomain(const DomAcct& d, BucketTotals* t) {
  bool any = false;
  for (const VcpuAcct& a : d.vcpus) {
    if (!a.present) continue;
    any = true;
    for (int i = 0; i < kStallBucketCount; ++i) {
      (*t)[static_cast<size_t>(i)] += a.buckets[i];
    }
  }
  return any;
}

StallBucket StallAccountant::DeriveBucket(const VcpuAcct& a) {
  // Frozen wins for non-running states: a parked vCPU's wait is intentional,
  // whatever else is pending. (Running-while-frozen is evacuation progress and
  // is attributed by OnRunningAdvance, not here.)
  if (a.frozen) return StallBucket::kFrozen;
  if (a.hv_state == HvState::kRunnable) {
    if (a.displaced) return StallBucket::kStolen;
    if (a.pending_event) return StallBucket::kIpiInFlight;
    return StallBucket::kRunnableWaitingPcpu;
  }
  return a.block_reason == StallBlockReason::kFutex ? StallBucket::kFutexBlocked
                                                    : StallBucket::kIdle;
}

void StallAccountant::Flush(VcpuAcct& a, TimeNs now) {
  if (a.hv_state != HvState::kRunning) {
    a.buckets[static_cast<int>(a.cur)] += now - a.since;
  }
  a.since = now;
}

void StallAccountant::OnVcpuCreated(int dom, int vcpu, TimeNs now) {
  if (!active_) return;
  Get(dom, vcpu, now);
}

void StallAccountant::OnDispatch(int dom, int vcpu, TimeNs now) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, now);
  if (a.wake_start != kTimeNever) {
    wake_to_dispatch_.Add(now - a.wake_start);
    a.wake_start = kTimeNever;
  }
  Flush(a, now);
  a.hv_state = HvState::kRunning;
  a.pending_event = false;  // RunOn drains pending ports at dispatch
  a.displaced = false;
}

void StallAccountant::OnDesched(int dom, int vcpu, TimeNs now, bool to_runnable) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, now);
  Flush(a, now);  // no-op while running; running time arrives via OnRunningAdvance
  a.hv_state = to_runnable ? HvState::kRunnable : HvState::kBlocked;
  if (!to_runnable && a.frozen && a.freeze_start != kTimeNever) {
    // A frozen vCPU blocking is Algorithm 2's quiescent point.
    freeze_quiesce_.Add(now - a.freeze_start);
    a.freeze_start = kTimeNever;
  }
  a.cur = DeriveBucket(a);
}

void StallAccountant::OnWake(int dom, int vcpu, TimeNs now) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, now);
  Flush(a, now);
  a.hv_state = HvState::kRunnable;
  a.block_reason = StallBlockReason::kIdle;  // consumed; rearmed before next block
  a.wake_start = now;
  a.cur = DeriveBucket(a);
}

void StallAccountant::OnRunningAdvance(int dom, int vcpu, TimeNs elapsed) {
  if (!active_) return;
  // `now` is not needed: running time is attributed directly, not by interval.
  VcpuAcct& a = Get(dom, vcpu, 0);
  a.buckets[static_cast<int>(StallBucket::kRunning)] += elapsed;
}

void StallAccountant::OnSpinAdvance(int dom, int vcpu, TimeNs elapsed) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, 0);
  a.buckets[static_cast<int>(StallBucket::kRunning)] -= elapsed;
  a.buckets[static_cast<int>(StallBucket::kLhpSpinning)] += elapsed;
}

void StallAccountant::OnFrozenChanged(int dom, int vcpu, TimeNs now, bool frozen) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, now);
  Flush(a, now);
  a.frozen = frozen;
  if (!frozen) a.freeze_start = kTimeNever;  // unfreeze cancels an open episode
  if (a.hv_state != HvState::kRunning) a.cur = DeriveBucket(a);
}

void StallAccountant::OnEventPosted(int dom, int vcpu, TimeNs now) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, now);
  if (a.hv_state == HvState::kRunning) return;  // delivered immediately
  Flush(a, now);
  a.pending_event = true;
  a.cur = DeriveBucket(a);
}

void StallAccountant::OnStealDisplaced(int dom, int vcpu, TimeNs now) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, now);
  // A displaced vCPU can be re-dispatched within the same steal transition;
  // if it is already running again there is no stolen wait to attribute.
  if (a.hv_state == HvState::kRunning) return;
  Flush(a, now);
  a.displaced = true;
  a.cur = DeriveBucket(a);
}

void StallAccountant::SetBlockReason(int dom, int vcpu, StallBlockReason reason) {
  if (!active_) return;
  Get(dom, vcpu, 0).block_reason = reason;
}

void StallAccountant::OnIpiSent(int dom, int vcpu, TimeNs now) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, now);
  if (a.ipi_sends.size() >= kMaxInFlightIpis) {
    a.ipi_sends.erase(a.ipi_sends.begin());
    ++ipi_unmatched_sends_;
  }
  a.ipi_sends.push_back(now);
}

void StallAccountant::OnIpiDelivered(int dom, int vcpu, TimeNs now) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, now);
  if (a.ipi_sends.empty()) return;  // delivery of an untracked port
  ipi_deliver_.Add(now - a.ipi_sends.front());
  a.ipi_sends.erase(a.ipi_sends.begin());
}

void StallAccountant::OnFreezeRequested(int dom, int vcpu, TimeNs now) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, now);
  if (a.freeze_start == kTimeNever) a.freeze_start = now;
}

void StallAccountant::OnApplyTarget(int dom, int target) {
  if (!active_) return;
  (void)target;
  ++Dom(dom).scale_ops;
}

void StallAccountant::EmitCounterTracks(int dom, const BucketTotals& t, TimeNs now) {
  VSCALE_TRACE_COUNTER(run_, now, TraceCategory::kHypervisor, "stall_running_ns",
                       dom, t[0]);
  VSCALE_TRACE_COUNTER(run_, now, TraceCategory::kHypervisor, "stall_runnable_ns",
                       dom, t[1]);
  VSCALE_TRACE_COUNTER(run_, now, TraceCategory::kHypervisor, "stall_lhp_ns",
                       dom, t[2]);
  VSCALE_TRACE_COUNTER(run_, now, TraceCategory::kHypervisor, "stall_futex_ns",
                       dom, t[3]);
  VSCALE_TRACE_COUNTER(run_, now, TraceCategory::kHypervisor, "stall_ipi_ns",
                       dom, t[4]);
  VSCALE_TRACE_COUNTER(run_, now, TraceCategory::kHypervisor, "stall_frozen_ns",
                       dom, t[5]);
  VSCALE_TRACE_COUNTER(run_, now, TraceCategory::kHypervisor, "stall_stolen_ns",
                       dom, t[6]);
  VSCALE_TRACE_COUNTER(run_, now, TraceCategory::kHypervisor, "stall_idle_ns",
                       dom, t[7]);
}

void StallAccountant::Sample(TimeNs now) {
  if (!active_) return;
  ++samples_;
  // Exhaustiveness holds exactly at HvTick boundaries: every running vCPU was
  // just settled to `now`, so attributed running time equals wall running time.
  std::string err;
  if (!CheckExhaustive(now, &err)) {
    ++exhaustive_failures_;
    VS_INVARIANT(false, "stall accounting not exhaustive: %s", err.c_str());
  }
  ++sample_seq_;
  if (sample_seq_ % kSampleEmitPeriod != 0) return;

  for (size_t d = 0; d < doms_.size(); ++d) {
    DomAcct& da = doms_[d];
    for (VcpuAcct& a : da.vcpus) {
      if (a.present) Flush(a, now);
    }
    BucketTotals t{};
    if (!SumDomain(da, &t)) continue;
    const int dom = static_cast<int>(d);
    // Cumulative tracks restart per run, but a quickstart-style trace holds
    // several runs on one rebased timeline with the same domain pids. Make the
    // restart explicit — a zero sample at the domain's first emission of this
    // run — so the trace_lint contract stays sharp: stall_* counters may only
    // ever decrease TO zero.
    if (!da.emitted) {
      da.emitted = true;
      EmitCounterTracks(dom, BucketTotals{}, now);
    }
    EmitCounterTracks(dom, t, now);
    CsvRow row;
    row.run = label_;
    row.ts = now;
    row.domain = dom;
    row.vcpu = -1;
    for (int i = 0; i < kStallBucketCount; ++i) {
      row.buckets[i] = t[static_cast<size_t>(i)];
    }
    rows_.push_back(std::move(row));
  }
}

// A negative id converts past the end of the table, and an entry that was
// never hooked holds zeros, so both read 0.
int64_t StallAccountant::BucketNs(int dom, int vcpu, StallBucket b) const {
  const size_t d = static_cast<size_t>(dom);
  const size_t v = static_cast<size_t>(vcpu);
  if (d >= doms_.size() || v >= doms_[d].vcpus.size()) return 0;
  return doms_[d].vcpus[v].buckets[static_cast<int>(b)];
}

int64_t StallAccountant::DomainBucketNs(int dom, StallBucket b) const {
  const size_t d = static_cast<size_t>(dom);
  if (d >= doms_.size()) return 0;
  int64_t total = 0;
  for (const VcpuAcct& a : doms_[d].vcpus) total += a.buckets[static_cast<int>(b)];
  return total;
}

bool StallAccountant::CheckExhaustive(TimeNs now, std::string* error) const {
  for (size_t d = 0; d < doms_.size(); ++d) {
    const std::vector<VcpuAcct>& vcpus = doms_[d].vcpus;
    for (size_t v = 0; v < vcpus.size(); ++v) {
      const VcpuAcct& a = vcpus[v];
      if (!a.present) continue;
      int64_t total = 0;
      for (int i = 0; i < kStallBucketCount; ++i) total += a.buckets[i];
      if (a.hv_state != HvState::kRunning) total += now - a.since;
      int64_t wall = now - a.birth;
      if (total != wall) {
        if (error != nullptr) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "dom %zu vcpu %zu: buckets sum %" PRId64
                        " != wall %" PRId64 " at t=%" PRId64,
                        d, v, total, wall, now);
          *error = buf;
        }
        return false;
      }
    }
  }
  return true;
}

void StallAccountant::WriteCsv(std::ostream& os) const {
  os << "run,ts_ns,domain,vcpu,bucket,cum_ns\n";
  for (const CsvRow& row : rows_) {
    for (int i = 0; i < kStallBucketCount; ++i) {
      os << row.run << ',' << row.ts << ',' << row.domain << ',' << row.vcpu
         << ',' << kBucketNames[i] << ',' << row.buckets[i] << '\n';
    }
  }
}

void StallAccountant::PublishMetrics(MetricsRegistry& registry,
                                     const std::string& prefix) const {
  for (size_t d = 0; d < doms_.size(); ++d) {
    const std::string base = prefix + "stall.dom" + std::to_string(d) + ".";
    BucketTotals totals{};
    if (SumDomain(doms_[d], &totals)) {
      for (int i = 0; i < kStallBucketCount; ++i) {
        registry.Counter(base + kBucketNames[i] + "_ns") =
            totals[static_cast<size_t>(i)];
      }
    }
    if (doms_[d].scale_ops > 0) registry.Counter(base + "scale_ops") = doms_[d].scale_ops;
  }
  auto publish_hist = [&](const char* name, const LatencyHistogram& h) {
    const std::string base = prefix + "stall.lat." + name + ".";
    registry.Counter(base + "count") = h.count();
    registry.Counter(base + "p50_ns") = h.Quantile(0.50);
    registry.Counter(base + "p95_ns") = h.Quantile(0.95);
    registry.Counter(base + "p99_ns") = h.Quantile(0.99);
    registry.Counter(base + "max_ns") = h.max();
  };
  publish_hist("wake_to_dispatch", wake_to_dispatch_);
  publish_hist("ipi_deliver", ipi_deliver_);
  publish_hist("freeze_quiesce", freeze_quiesce_);
  registry.Counter(prefix + "stall.ipi_unmatched_sends") = ipi_unmatched_sends_;
}

void StallAccountant::Reset() {
  active_ = false;
  run_ = {};
  label_.clear();
  doms_.clear();
  wake_to_dispatch_ = LatencyHistogram();
  ipi_deliver_ = LatencyHistogram();
  freeze_quiesce_ = LatencyHistogram();
  samples_ = 0;
  sample_seq_ = 0;
  exhaustive_failures_ = 0;
  ipi_unmatched_sends_ = 0;
  rows_.clear();
}

}  // namespace vscale
