// Summary statistics with the benchmark's reporting rule: a percentile is
// reported only when at least ten samples lie beyond it.
//
// A shared host can alternate between fast and slow spells of one to a
// few seconds, about a third apart. A median
// over values that clump by spell (one per round, or closed-loop latencies
// that barely vary within a spell) jumps from one spell's level to the
// other's as their shares cross one half. The run-level figures below move
// instead in proportion to those shares: totals over totals for rates,
// trimmed means for whole operations, and medians and tail percentiles
// of short stretches of the run, averaged.

#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace e2ebench {

/// Samples strictly needed beyond a reported percentile.
inline constexpr size_t kSamplesBeyondPercentile = 10;

/// Median (mean of the middle two for even counts). Requires a sample.
double Median(std::vector<double> samples);

/// The q-th percentile (0 < q < 1, nearest rank), or nullopt when fewer
/// than kSamplesBeyondPercentile samples lie above that rank.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Mean of what is left after dropping floor(trim * n) samples at each end
/// (0 <= trim < 0.5). Requires a sample.
double TrimmedMean(std::vector<double> samples, double trim);

/// Work done and the wall time it took, summed over the phases of a run.
struct Throughput {
  double count = 0;
  double seconds = 0;
  size_t phases = 0;

  void Add(double c, double s) {
    count += c;
    seconds += s;
    ++phases;
  }
  double rate() const { return seconds > 0 ? count / seconds : 0; }
};

/// Latency samples, each tagged with the time (steady clock) it ended.
class TimedSamples {
 public:
  void Add(int64_t end_ns, double value);
  void Merge(const TimedSamples& other);

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// The median of each second's samples, averaged over the seconds with
  /// each weighted by its sample count. Requires a sample.
  double SliceMedian() const;

  /// The q-th percentile of each run of `chunk` samples in order of their
  /// end times, averaged over the runs with each weighted by its sample
  /// count; a last run shorter than `chunk` joins the one before it.
  /// Nullopt when a run does not support the percentile (Percentile).
  std::optional<double> ChunkPercentile(double q, size_t chunk) const;

 private:
  std::vector<double> values_;
  std::vector<int64_t> end_ns_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_STATS_H_
