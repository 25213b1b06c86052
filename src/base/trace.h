// Flight recorder: a bounded ring buffer of typed, timestamped trace events that the
// whole simulation stack (sim engine, hypervisor, guest kernels, vScale) records into
// when a run has a Tracer attached (Observers::tracer, src/base/observers.h). It
// exists to make cross-layer pathologies *visible*: lock holder preemption, delayed
// virtual IPIs and delayed I/O interrupts (paper Fig. 1) only show up when hypervisor
// scheduling decisions and guest synchronization events line up on one timeline.
//
// Design constraints:
//  * Nothing to pay when unattached. Call sites go through the VSCALE_TRACE_* macros,
//    which branch on the run's tracer pointer before touching it or evaluating any
//    argument. Recording never allocates: event names are string literals and the
//    ring is preallocated when the harness constructs the Tracer, which it does only
//    when it wants a trace.
//  * Bounded memory. The ring overwrites the oldest events once full (`dropped()`
//    counts the overwritten ones), so tracing a long run keeps the most recent window.
//  * No behavioural impact. Recording reads simulation state but never mutates it and
//    never touches the RNG; attaching a tracer cannot change a run's results.
//
// Timestamps are simulated TimeNs. Because separate Machine instances each start at
// t = 0, the tracer rebases timestamps to be globally non-decreasing across runs
// recorded into the same buffer (see Record()); back-to-back runs concatenate on the
// exported timeline instead of overlapping.
//
// Export formats live in src/metrics/trace_export.h (Chrome trace_event JSON for
// ui.perfetto.dev, CSV counter dumps). Schema documentation: docs/OBSERVABILITY.md.

#ifndef VSCALE_SRC_BASE_TRACE_H_
#define VSCALE_SRC_BASE_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/observers.h"
#include "src/base/time.h"

namespace vscale {

// One bit per simulation layer; exports name each event's layer.
enum class TraceCategory : uint32_t {
  kSim = 1u << 0,         // event-engine dispatch
  kHypervisor = 1u << 1,  // vCPU state transitions, credits, steals, preemptions
  kGuest = 1u << 2,       // IPIs, futex wait/wake, spinlocks, ticks, hotplug
  kVscale = 1u << 3,      // extendability updates, freeze/unfreeze decisions
};

const char* ToString(TraceCategory c);

// The subset of Chrome trace_event phases the exporter emits.
enum class TracePhase : char {
  kBegin = 'B',    // opens a duration slice on a track
  kEnd = 'E',      // closes the most recent open slice on the same track
  kInstant = 'i',  // a point event
  kCounter = 'C',  // a sampled numeric series (one track per name per domain)
};

struct TraceEvent {
  TimeNs ts = 0;                  // rebased simulated time (non-decreasing in buffer)
  const char* name = nullptr;     // static string literal; never owned or freed
  const char* arg_name = nullptr; // optional argument label (static literal), or null
  int64_t arg = 0;                // argument / counter value
  TraceCategory category = TraceCategory::kSim;
  TracePhase phase = TracePhase::kInstant;
  int16_t domain = -1;            // -1 = machine scope
  int16_t vcpu = -1;              // domain-local vCPU id, -1 = n/a
  int16_t pcpu = -1;              // -1 = n/a
};

class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1u << 18;  // ~12 MB of events

  explicit Tracer(size_t capacity = kDefaultCapacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  size_t capacity() const { return ring_.size(); }

  // Records one event. Cheap: a ring slot write, no allocation. `ts` may restart
  // from 0 (a fresh Machine); the tracer rebases it so buffer order is always
  // chronological.
  void Record(TimeNs ts, TraceCategory category, TracePhase phase, const char* name,
              int domain, int vcpu, int pcpu, const char* arg_name, int64_t arg);

  // Number of events currently retained (<= capacity).
  size_t size() const { return count_; }
  // Total recorded, including overwritten ones.
  uint64_t recorded() const { return recorded_; }
  // Events overwritten by ring wraparound.
  uint64_t dropped() const { return recorded_ - count_; }

  // Copies the retained events oldest-first.
  std::vector<TraceEvent> Snapshot() const;

  // Human-readable display names for domain tracks in exports ("primary",
  // "desktop0", ...). Recorded by Machine::CreateDomain when a tracer is attached.
  void SetDomainName(int domain, const std::string& name);
  const std::map<int, std::string>& domain_names() const { return domain_names_; }

 private:
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;       // next slot to write
  size_t count_ = 0;      // retained events
  uint64_t recorded_ = 0;
  TimeNs rebase_offset_ = 0;  // added to incoming ts so buffer time never regresses
  TimeNs last_ts_ = 0;
  std::map<int, std::string> domain_names_;
};

// True when the run observed through `obs_` (an Observers) has a tracer attached.
// Use to guard argument computations that only exist for tracing.
#define VSCALE_TRACE_ACTIVE(obs_) ((obs_).tracer != nullptr)

// Every hook names the run's Observers first and records into its tracer, if any.
#define VSCALE_TRACE_EVENT(obs_, ts_, cat_, phase_, name_, dom_, vcpu_, pcpu_,      \
                           argname_, argval_)                                      \
  do {                                                                              \
    if (::vscale::Tracer* vs_tracer_ = (obs_).tracer) {                             \
      vs_tracer_->Record((ts_), (cat_), (phase_), (name_), (dom_), (vcpu_),         \
                         (pcpu_), (argname_), static_cast<int64_t>(argval_));       \
    }                                                                               \
  } while (0)

#define VSCALE_TRACE_INSTANT(obs_, ts_, cat_, name_, dom_, vcpu_, pcpu_)           \
  VSCALE_TRACE_EVENT(obs_, ts_, cat_, ::vscale::TracePhase::kInstant, name_, dom_,  \
                     vcpu_, pcpu_, nullptr, 0)
#define VSCALE_TRACE_INSTANT_ARG(obs_, ts_, cat_, name_, dom_, vcpu_, pcpu_,       \
                                 argname_, argval_)                                \
  VSCALE_TRACE_EVENT(obs_, ts_, cat_, ::vscale::TracePhase::kInstant, name_, dom_,  \
                     vcpu_, pcpu_, argname_, argval_)
#define VSCALE_TRACE_BEGIN(obs_, ts_, cat_, name_, dom_, vcpu_, pcpu_)             \
  VSCALE_TRACE_EVENT(obs_, ts_, cat_, ::vscale::TracePhase::kBegin, name_, dom_,    \
                     vcpu_, pcpu_, nullptr, 0)
#define VSCALE_TRACE_END(obs_, ts_, cat_, name_, dom_, vcpu_, pcpu_)               \
  VSCALE_TRACE_EVENT(obs_, ts_, cat_, ::vscale::TracePhase::kEnd, name_, dom_,      \
                     vcpu_, pcpu_, nullptr, 0)
#define VSCALE_TRACE_COUNTER(obs_, ts_, cat_, name_, dom_, value_)                 \
  VSCALE_TRACE_EVENT(obs_, ts_, cat_, ::vscale::TracePhase::kCounter, name_, dom_,  \
                     -1, -1, "value", value_)

}  // namespace vscale

#endif  // VSCALE_SRC_BASE_TRACE_H_
