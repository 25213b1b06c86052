#include "src/base/trace.h"

namespace vscale {

const char* ToString(TraceCategory c) {
  switch (c) {
    case TraceCategory::kSim:
      return "sim";
    case TraceCategory::kHypervisor:
      return "hypervisor";
    case TraceCategory::kGuest:
      return "guest";
    case TraceCategory::kVscale:
      return "vscale";
  }
  return "?";
}

Tracer::Tracer(size_t capacity) { ring_.resize(capacity > 0 ? capacity : 1); }

void Tracer::Append(TimeNs ts, TraceCategory category, TracePhase phase,
                    const char* name, int domain, int vcpu, int pcpu,
                    const char* arg_name, int64_t arg) {
  // Rebase: a fresh Machine restarts simulated time at 0; shift it past everything
  // already recorded so the buffer (and any export) stays chronological.
  TimeNs t = ts + rebase_offset_;
  if (t < last_ts_) {
    rebase_offset_ += last_ts_ - t;
    t = last_ts_;
  }
  last_ts_ = t;

  TraceEvent& e = ring_[head_];
  e.ts = t;
  e.name = name;
  e.arg_name = arg_name;
  e.arg = arg;
  e.category = category;
  e.phase = phase;
  e.domain = static_cast<int16_t>(domain);
  e.vcpu = static_cast<int16_t>(vcpu);
  e.pcpu = static_cast<int16_t>(pcpu);
  if (++head_ == ring_.size()) {
    head_ = 0;
  }
  if (count_ < ring_.size()) {
    ++count_;
  }
  ++recorded_;
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(count_);
  const size_t cap = ring_.size();
  size_t start = (head_ + cap - count_) % cap;
  for (size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % cap]);
  }
  return out;
}

void Tracer::SetDomainName(int domain, const std::string& name) {
  domain_names_[domain] = name;
}

}  // namespace vscale
