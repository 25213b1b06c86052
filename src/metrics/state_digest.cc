#include "src/metrics/state_digest.h"

#include <cstdio>

#include "src/base/metrics_registry.h"
#include "src/guest/kernel.h"
#include "src/guest/thread.h"
#include "src/hypervisor/domain.h"
#include "src/hypervisor/machine.h"

namespace vscale {

namespace {
constexpr uint64_t kFnvPrime = 1099511628211ull;
}  // namespace

StateDigest& StateDigest::Absorb(uint64_t v) {
  // FNV-1a over the 8 little-endian bytes of v; endianness is fixed by shifting,
  // not by memory layout, so the digest is host-independent.
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= kFnvPrime;
  }
  return *this;
}

StateDigest& StateDigest::Absorb(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= kFnvPrime;
  }
  // Terminator so {"ab","c"} and {"a","bc"} differ.
  h_ ^= 0xffu;
  h_ *= kFnvPrime;
  return *this;
}

StateDigest& StateDigest::AbsorbMachine(const Machine& machine) {
  Absorb(machine.sim().Now());
  Absorb(machine.sim().events_processed());
  Absorb(machine.context_switches());
  Absorb(machine.n_pcpus());
  for (PcpuId p = 0; p < machine.n_pcpus(); ++p) Absorb(machine.PcpuIdleTime(p));
  for (const auto& dom : machine.domains()) {
    Absorb(dom->name());
    Absorb(dom->TotalRuntime());
    Absorb(dom->TotalWait());
    for (VcpuId i = 0; i < dom->n_vcpus(); ++i) {
      const Vcpu& v = dom->vcpu(i);
      Absorb(v.total_runtime);
      Absorb(v.total_wait);
      Absorb(v.total_blocked);
      Absorb(v.preemptions);
      Absorb(v.wakeups);
      Absorb(v.credit_ns);
      Absorb(static_cast<int>(v.state()));
      Absorb(static_cast<int>(v.frozen));
    }
  }
  return *this;
}

StateDigest& StateDigest::AbsorbGuest(const GuestKernel& kernel) {
  Absorb(kernel.freeze_mask());
  Absorb(kernel.n_cpus());
  for (int i = 0; i < kernel.n_cpus(); ++i) {
    const GuestCpuStats& s = kernel.cpu(i).stats;
    Absorb(s.timer_ints);
    Absorb(s.resched_ipis);
    Absorb(s.io_irqs);
    Absorb(s.guest_switches);
  }
  // Delivery fault-domain and hardening counters, absorbed only when at least
  // one of them fired. In an unfaulted, unhardened run every counter is
  // provably zero (the seams are all behind `faults_`/config checks), so
  // skipping them keeps every pre-existing scenario's digest bit-identical —
  // while any run the new fault domain actually touched absorbs the full
  // vector and makes a dropped/duplicated IPI that somehow converged to
  // identical thread stats still distinguishable. The branch is a pure
  // function of run state, so double-run identity is unaffected.
  const int64_t delivery_sum =
      kernel.delivery_drops() + kernel.delivery_dups() +
      kernel.delivery_delays() + kernel.delivery_coalesced() +
      kernel.delivery_flushes() + kernel.freeze_resends() +
      kernel.dup_ipis_ignored() + kernel.tick_rescues();
  if (delivery_sum > 0) {
    Absorb(kernel.delivery_drops());
    Absorb(kernel.delivery_dups());
    Absorb(kernel.delivery_delays());
    Absorb(kernel.delivery_coalesced());
    Absorb(kernel.delivery_flushes());
    Absorb(kernel.freeze_resends());
    Absorb(kernel.dup_ipis_ignored());
    Absorb(kernel.tick_rescues());
  }
  for (const auto& t : kernel.threads()) {
    Absorb(t->name());
    Absorb(t->cpu_time);
    Absorb(t->spin_time);
    Absorb(t->wait_time);
    Absorb(t->migrations);
    Absorb(t->wakeups);
    Absorb(t->vruntime);
  }
  return *this;
}

StateDigest& StateDigest::AbsorbRegistry(const MetricsRegistry& registry) {
  for (const auto& [name, value] : registry.Collect()) {
    Absorb(name);
    Absorb(value);
  }
  return *this;
}

std::string StateDigest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return std::string(buf);
}

}  // namespace vscale
