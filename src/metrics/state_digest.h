// StateDigest: a 64-bit FNV-1a digest over end-of-run simulation state, the
// fingerprint the determinism harness compares across replays.
//
// The substitution argument of this repro (PAPER.md) assumes the DES is
// bit-deterministic: the same seed must replay the same schedule. A digest over
// "everything the schedule influenced" turns that assumption into a checkable
// bit: two runs with identical configs and seeds must produce identical
// digests, in Release, sanitizer and VSCALE_CHECKED builds alike.
//
// What gets absorbed (deliberately broad — a single reordered preemption
// perturbs context-switch counts, wait totals and vruntime everywhere):
//  * Machine: virtual time, events processed, context switches, per-pCPU idle
//    time, per-domain runtime/wait, per-vCPU runtime/wait/block/credit and
//    preemption/wakeup counters;
//  * GuestKernel: freeze mask, per-CPU interrupt/switch counters, per-thread
//    cpu/spin/wait time, migrations and wakeups;
//  * MetricsRegistry: every (name, value) counter pair.
//
// Used by tools/digest_run (the ctest double-run harness), quickstart
// --digest, and the bench --digest flag (bench/bench_common.h). Documented in
// docs/CHECKING.md.

#ifndef VSCALE_SRC_METRICS_STATE_DIGEST_H_
#define VSCALE_SRC_METRICS_STATE_DIGEST_H_

#include <cstdint>
#include <string>

namespace vscale {

class GuestKernel;
class Machine;
class MetricsRegistry;

class StateDigest {
 public:
  StateDigest& Absorb(uint64_t v);
  StateDigest& Absorb(int64_t v) { return Absorb(static_cast<uint64_t>(v)); }
  StateDigest& Absorb(int v) { return Absorb(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  StateDigest& Absorb(const std::string& s);

  StateDigest& AbsorbMachine(const Machine& machine);
  StateDigest& AbsorbGuest(const GuestKernel& kernel);
  StateDigest& AbsorbRegistry(const MetricsRegistry& registry);

  uint64_t value() const { return h_; }
  // Fixed-width lowercase hex, the form printed and compared by the harnesses.
  std::string Hex() const;

 private:
  uint64_t h_ = 14695981039346656037ull;  // FNV-1a 64-bit offset basis
};

}  // namespace vscale

#endif  // VSCALE_SRC_METRICS_STATE_DIGEST_H_
