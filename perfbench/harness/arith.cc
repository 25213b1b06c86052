#include "harness/arith.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile p among n samples.
int64_t NearestRank(int64_t n, double p) {
  const auto rank = static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const int64_t n = static_cast<int64_t>(v.size());
  return v[static_cast<size_t>(NearestRank(n, p) - 1)];
}

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

Tail SelectTail(const std::vector<double>& v) {
  Tail t;
  t.samples = static_cast<int64_t>(v.size());
  if (v.empty()) return t;
  for (double p : kTailLadder) {
    t.percentile = p;
    t.beyond = t.samples - NearestRank(t.samples, p);
    if (t.beyond >= kTailMinBeyond) break;
  }
  t.value = Percentile(v, t.percentile);
  return t;
}

RatioSummary SummarizeRatios(const std::vector<CellTime>& cells,
                             int64_t spin_filter) {
  // Per side of a pair: cells seen, summed duration, and whether all finished.
  struct Side {
    int n = 0;
    double sum_ns = 0.0;
    bool ok = true;
  };
  using Key = std::pair<std::string, int64_t>;
  std::map<Key, std::pair<Side, Side>> by_pair;  // {baseline, vscale}
  for (const CellTime& c : cells) {
    if (spin_filter >= 0 && c.spin_count != spin_filter) continue;
    auto& slot = by_pair[{c.app, c.spin_count}];
    Side& side = c.vscale ? slot.second : slot.first;
    ++side.n;
    side.sum_ns += static_cast<double>(c.duration_ns);
    side.ok = side.ok && c.finished && c.duration_ns > 0;
  }
  RatioSummary r;
  double log_sum = 0.0;
  for (const auto& [key, pair] : by_pair) {
    const Side& base = pair.first;
    const Side& vs = pair.second;
    if (base.n == 0 || vs.n == 0 || !base.ok || !vs.ok) {
      ++r.missing;
      continue;
    }
    const double ratio = (vs.sum_ns / vs.n) / (base.sum_ns / base.n);
    log_sum += std::log(ratio);
    if (r.pairs == 0 || ratio > r.max) {
      r.max = ratio;
      r.max_cell = key.first + "@" + std::to_string(key.second);
    }
    ++r.pairs;
  }
  if (r.pairs > 0) r.geomean = std::exp(log_sum / r.pairs);
  return r;
}

double FailureFraction(int64_t failed, int64_t attempted) {
  return attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                       : 0.0;
}

}  // namespace perfbench
