// The benchmark's own arithmetic, kept apart from the workloads so the
// self-test (harness/selftest.cc) can pin it down: tail-percentile selection,
// medians, vScale/Xen-Linux completion-time ratios and failure fractions.

#ifndef PERFBENCH_HARNESS_ARITH_H_
#define PERFBENCH_HARNESS_ARITH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Percentiles a tail may be reported at, highest first. Coarse on purpose: the
// number of timed units in a run depends on host speed, and a coarse ladder
// keeps the chosen percentile from flipping between runs of one workload.
inline constexpr double kTailLadder[] = {99.0, 95.0, 90.0, 75.0, 50.0};
inline constexpr int64_t kTailMinBeyond = 10;

struct Tail {
  double percentile = 0.0;  // 0 when there are no samples
  double value = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;  // samples ranked above the percentile
};

// Nearest-rank percentile of `v` (any order), p in (0, 100]. 0 for empty input.
double Percentile(std::vector<double> v, double p);
double Median(const std::vector<double>& v);

// The highest percentile of kTailLadder with at least kTailMinBeyond samples
// ranked beyond it. With fewer than 20 samples no rung qualifies and the
// median is returned (beyond < kTailMinBeyond tells the reader).
Tail SelectTail(const std::vector<double>& v);

// One NPB cell's outcome. A cell that hit its run deadline has finished=false.
struct CellTime {
  std::string app;
  int64_t spin_count = 0;
  bool vscale = false;
  int64_t duration_ns = 0;
  bool finished = false;
};

// vScale / Xen-Linux completion-time ratios over (app, spin_count) pairs.
// Several cells of one (app, spin_count, policy) are averaged first, as the
// figure benches average seeds. Pairs with an absent or unfinished cell on
// either side are skipped and counted in `missing`; geomean and max cover the
// remaining `pairs`.
struct RatioSummary {
  double geomean = 0.0;
  double max = 0.0;
  std::string max_cell;  // "<app>@<spin_count>"
  int pairs = 0;
  int missing = 0;
};

// `spin_filter` < 0 takes every spin count; otherwise only that one.
RatioSummary SummarizeRatios(const std::vector<CellTime>& cells,
                             int64_t spin_filter = -1);

// failed / attempted; 0 when nothing was attempted.
double FailureFraction(int64_t failed, int64_t attempted);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_ARITH_H_
