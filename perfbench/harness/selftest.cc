// Tests of the benchmark's own arithmetic: tail-percentile selection, span
// self time with nested and adjacent children, vScale/Xen-Linux ratio
// summaries with a missing baseline cell, and the failure fraction. Exits 1
// on the first failed expectation; perfbench/run.py runs it before measuring.

#include <cmath>
#include <cstdio>
#include <vector>

#include "harness/arith.h"
#include "harness/spans.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // reversed: order must not matter
  return v;
}

void TestTail() {
  Expect(SelectTail({}).samples == 0 && SelectTail({}).percentile == 0.0, "empty tail");
  // 1000 samples: p99 leaves exactly 10 beyond it.
  Tail t = SelectTail(Iota(1000));
  Expect(t.percentile == 99.0 && t.beyond == 10 && t.value == 990.0, "p99 at 1000 samples");
  // 999 samples: p99 leaves 9, so p95 (ranks 950..999 beyond 949) is chosen.
  t = SelectTail(Iota(999));
  Expect(t.percentile == 95.0 && t.beyond == 49 && t.value == 950.0, "p95 at 999 samples");
  // 200 samples: p95 leaves exactly 10.
  t = SelectTail(Iota(200));
  Expect(t.percentile == 95.0 && t.beyond == 10 && t.value == 190.0, "p95 at 200 samples");
  // 40 samples: p75 leaves 10.
  t = SelectTail(Iota(40));
  Expect(t.percentile == 75.0 && t.beyond == 10 && t.value == 30.0, "p75 at 40 samples");
  // 19 samples: no rung qualifies; the median is reported with 9 beyond.
  t = SelectTail(Iota(19));
  Expect(t.percentile == 50.0 && t.beyond == 9 && t.value == 10.0, "median fallback");
  Expect(Median({3.0, 1.0, 2.0}) == 2.0 && Median({4.0, 1.0, 3.0, 2.0}) == 2.0,
         "nearest-rank median");
  Expect(Percentile({5.0, 7.0}, 100.0) == 7.0, "p100 is the maximum");
}

Span MakeSpan(int parent, int64_t start, int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTime() {
  // root [0,100): children A [10,30) and B [30,50) adjacent, C [60,70);
  // A has a grandchild [12,20) that must not be subtracted from root.
  std::vector<Span> spans = {MakeSpan(-1, 0, 100), MakeSpan(0, 10, 30), MakeSpan(1, 12, 20),
                             MakeSpan(0, 30, 50), MakeSpan(0, 60, 70)};
  std::vector<int64_t> self = SelfTimes(spans);
  Expect(self[0] == 50, "root self = 100 - (20 + 20 + 10)");
  Expect(self[1] == 12, "nested child self = 20 - 8");
  Expect(self[2] == 8 && self[3] == 20 && self[4] == 10, "leaf self = duration");
  int64_t sum = 0;
  for (int64_t s : self) sum += s;
  Expect(sum == 100, "self times of a unit sum to its wall time");

  // Overlapping children (cannot happen single-threaded, but must not
  // double-subtract) and a child overhanging its parent.
  spans = {MakeSpan(-1, 0, 100), MakeSpan(0, 10, 40), MakeSpan(0, 30, 60), MakeSpan(0, 90, 120)};
  self = SelfTimes(spans);
  Expect(self[0] == 40, "root self = 100 - union{[10,60),[90,100)}");

  const std::vector<UnitAttribution> units = AttributeUnits(spans, self);
  Expect(units.size() == 1 && units[0].wall_ns == 100 && units[0].unattributed_ns == 40,
         "unit attribution");

  SpanRecorder rec;
  Expect(rec.Begin("off") == -1 && rec.spans().empty(), "disabled recorder records nothing");
  rec.set_enabled(true);
  const int u0 = rec.Begin("unit");
  const int c0 = rec.Begin("child");
  rec.End(c0);
  rec.End(u0);
  const int u1 = rec.Begin("unit");
  rec.End(u1);
  Expect(rec.spans()[1].parent == u0 && rec.spans()[1].unit == rec.spans()[0].unit &&
             rec.spans()[2].unit != rec.spans()[0].unit,
         "children share their unit id; roots start new units");
}

void TestRatios() {
  const std::vector<CellTime> cells = {
      {"bt", 1, false, 100, true}, {"bt", 1, true, 50, true},     // 0.5
      {"cg", 1, false, 100, true}, {"cg", 1, true, 200, true},    // 2.0
      {"lu", 1, true, 300, true},                                 // no baseline cell
      {"mg", 1, false, 100, false}, {"mg", 1, true, 100, true},   // baseline hit deadline
      {"ua", 2, false, 100, true}, {"ua", 2, true, 125, true},    // 1.25, other spin
  };
  RatioSummary r = SummarizeRatios(cells, 1);
  Expect(r.pairs == 2 && r.missing == 2, "missing baseline cells are skipped and counted");
  Expect(Near(r.geomean, 1.0) && Near(r.max, 2.0) && r.max_cell == "cg@1",
         "geomean(0.5, 2.0) = 1, max 2.0 at cg");
  r = SummarizeRatios(cells);
  Expect(r.pairs == 3 && Near(r.geomean, std::cbrt(1.25)) && Near(r.max, 2.0),
         "unfiltered summary spans spin counts");
  r = SummarizeRatios({});
  Expect(r.pairs == 0 && r.geomean == 0.0, "no pairs");
  // Repeated cells of one side are averaged before the ratio is taken.
  r = SummarizeRatios({{"ep", 1, false, 100, true}, {"ep", 1, false, 300, true},
                       {"ep", 1, true, 100, true}});
  Expect(r.pairs == 1 && Near(r.max, 0.5), "mean of two baseline cells is 200");
  r = SummarizeRatios({{"ep", 1, false, 100, true}, {"ep", 1, false, 300, false},
                       {"ep", 1, true, 100, true}});
  Expect(r.pairs == 0 && r.missing == 1, "one unfinished repeat spoils its side");
}

void TestFailureFraction() {
  Expect(FailureFraction(0, 40) == 0.0, "no failures");
  Expect(Near(FailureFraction(3, 40), 0.075), "3 of 40");
  Expect(FailureFraction(0, 0) == 0.0, "nothing attempted");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestTail();
  perfbench::TestSelfTime();
  perfbench::TestRatios();
  perfbench::TestFailureFraction();
  if (perfbench::g_failures > 0) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}
