// Streaming descriptive statistics used by metric collectors and bench harnesses.

#ifndef VSCALE_SRC_BASE_STATS_H_
#define VSCALE_SRC_BASE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace vscale {

// Welford-style running mean/variance plus min/max. O(1) memory.
class RunningStat {
 public:
  void Add(double x);
  void Merge(const RunningStat& other);
  void Reset();

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return count_ > 0 ? mean_ * static_cast<double>(count_) : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Stores all samples; supports exact quantiles. Used where sample counts are modest
// (latency measurements, per-run results), not in per-event hot paths.
class SampleSet {
 public:
  void Add(double x);

  size_t count() const { return samples_.size(); }
  double mean() const;
  double min() const;
  double max() const;
  // Linear-interpolated quantile, q in [0, 1]. Sorts lazily.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace vscale

#endif  // VSCALE_SRC_BASE_STATS_H_
