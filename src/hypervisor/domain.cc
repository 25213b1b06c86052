#include "src/hypervisor/domain.h"

namespace vscale {

Domain::Domain(DomainId id, std::string name, int weight, int n_vcpus)
    : id_(id), name_(std::move(name)), weight_(weight) {
  // Reserve exactly: the vCPU array never grows afterwards, which is what makes
  // the Vcpu* held by run queues and advance-timer closures stable.
  vcpus_.reserve(static_cast<size_t>(n_vcpus));
  for (int i = 0; i < n_vcpus; ++i) {
    vcpus_.emplace_back(this, i);
  }
}

int Domain::n_active_vcpus() const {
  int n = 0;
  for (const auto& v : vcpus_) {
    if (!v.frozen) {
      ++n;
    }
  }
  return n;
}

uint64_t Domain::hv_freeze_mask() const {
  uint64_t mask = 0;
  for (size_t i = 0; i < vcpus_.size(); ++i) {
    if (vcpus_[i].frozen) {
      mask |= 1ULL << i;
    }
  }
  return mask;
}

TimeNs Domain::TotalRuntime() const {
  TimeNs total = 0;
  for (const auto& v : vcpus_) {
    total += v.total_runtime;
  }
  return total;
}

TimeNs Domain::TotalWait() const {
  TimeNs total = 0;
  for (const auto& v : vcpus_) {
    total += v.total_wait;
  }
  return total;
}

}  // namespace vscale
