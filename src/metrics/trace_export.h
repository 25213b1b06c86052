// Exporters for the flight recorder (src/base/trace.h).
//
// Chrome trace_event JSON ("catapult" format), loadable in ui.perfetto.dev or
// chrome://tracing. Track layout:
//  * pid 1          — "machine": one thread track per pCPU, plus a pseudo "engine"
//                     track (tid 99) for sim-layer events with no pCPU affinity.
//                     Hypervisor "run" slices appear here named "d<dom>/v<vcpu>", so
//                     the machine rows read like Xen's per-pCPU schedule.
//  * pid 10+d       — one process per domain d ("dom<d> <name>"): one thread track
//                     per vCPU plus a pseudo "domain" track (tid 63) for
//                     domain-scope events, and the domain's counter series.
// Timestamps are simulated time in microseconds. Duration (B/E) slices are balanced
// per track at export time: an E with no open B (ring wraparound cut off its begin)
// is dropped, and a B still open when the buffer ends is closed at the final
// timestamp. See docs/OBSERVABILITY.md for the schema and a worked example.

#ifndef VSCALE_SRC_METRICS_TRACE_EXPORT_H_
#define VSCALE_SRC_METRICS_TRACE_EXPORT_H_

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/base/trace.h"

namespace vscale {

// Process/thread-id scheme used by the exporter (shared with the validator/tests).
inline constexpr int kTraceMachinePid = 1;
inline constexpr int kTraceDomainPidBase = 10;  // domain d -> pid 10 + d
inline constexpr int kTraceEngineTid = 99;      // sim-engine pseudo thread (pid 1)
inline constexpr int kTraceDomainTid = 63;      // domain-scope pseudo thread

// Writes the tracer's retained events as {"traceEvents":[...]} JSON.
void WriteChromeTrace(const Tracer& tracer, std::ostream& os);
// The same for chronological `events` (as Tracer::Snapshot returns them) and
// the domain display names.
void WriteChromeTrace(const std::vector<TraceEvent>& events,
                      const std::map<int, std::string>& domain_names, std::ostream& os);

// Convenience: WriteChromeTrace to `path`. Returns false (and fills *error if given)
// when the file cannot be written.
bool WriteChromeTraceFile(const Tracer& tracer, const std::string& path,
                          std::string* error = nullptr);

}  // namespace vscale

#endif  // VSCALE_SRC_METRICS_TRACE_EXPORT_H_
