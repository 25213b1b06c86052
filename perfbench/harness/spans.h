// Host-time spans recorded by the benchmark around each call it makes into a
// layer of the simulator (Testbed ctor, app Start, each RunUntil chunk, digest,
// dtor, GenerateScenario, RunOracle). Spans stay in memory and are written out
// as one Chrome trace when the run ends.
//
// A span opened while no other span is open is a unit root: it starts a new
// unit id, and every span opened beneath it shares that id. A span's self time
// is its duration minus the part of it its direct children cover.

#ifndef PERFBENCH_HARNESS_SPANS_H_
#define PERFBENCH_HARNESS_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic host clock, in ns.
int64_t NowNs();

struct Span {
  const char* name = "";  // a string literal
  int32_t parent = -1;    // index into the recorder's spans; -1 for a unit root
  uint32_t unit = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one; -1 (and no clock read) when
  // recording is disabled.
  int Begin(const char* name);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }
  bool WriteChromeTrace(const std::string& path, std::string* error) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint32_t next_unit_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name) : rec_(rec), index_(rec.Begin(name)) {}
  ~ScopedSpan() { rec_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
};

// Self time of every span, index-aligned with `spans`: duration minus the
// union of its direct children's intervals, clipped to the span.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

struct LayerTime {
  int64_t calls = 0;
  int64_t self_ns = 0;
};
// Per span name: call count and summed self time.
std::map<std::string, LayerTime> AggregateByName(const std::vector<Span>& spans,
                                                 const std::vector<int64_t>& self);

// One row per unit root: its wall time and the part no layer span covers.
struct UnitAttribution {
  const char* name = "";
  int64_t wall_ns = 0;
  int64_t unattributed_ns = 0;
};
std::vector<UnitAttribution> AttributeUnits(const std::vector<Span>& spans,
                                            const std::vector<int64_t>& self);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SPANS_H_
