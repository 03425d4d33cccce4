#include "stats.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace e2ebench {

double Median(std::vector<double> samples) {
  const size_t n = samples.size();
  std::nth_element(samples.begin(), samples.begin() + n / 2, samples.end());
  const double upper = samples[n / 2];
  if (n % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + n / 2);
  return (lower + upper) / 2;
}

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it; everything after that rank lies beyond the percentile.
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  const size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < kSamplesBeyondPercentile) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double TrimmedMean(std::vector<double> samples, double trim) {
  std::sort(samples.begin(), samples.end());
  const size_t cut = static_cast<size_t>(trim * static_cast<double>(samples.size()));
  double sum = 0;
  for (size_t i = cut; i < samples.size() - cut; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * cut);
}

void TimedSamples::Add(int64_t end_ns, double value) {
  values_.push_back(value);
  end_ns_.push_back(end_ns);
}

void TimedSamples::Merge(const TimedSamples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  end_ns_.insert(end_ns_.end(), other.end_ns_.begin(), other.end_ns_.end());
}

double TimedSamples::SliceMedian() const {
  std::map<int64_t, std::vector<double>> by_second;
  for (size_t i = 0; i < values_.size(); ++i) {
    by_second[end_ns_[i] / 1'000'000'000].push_back(values_[i]);
  }
  double weighted = 0;
  for (auto& [second, samples] : by_second) {
    weighted += Median(samples) * static_cast<double>(samples.size());
  }
  return weighted / static_cast<double>(values_.size());
}

std::optional<double> TimedSamples::ChunkPercentile(double q, size_t chunk) const {
  const size_t n = values_.size();
  if (n < chunk || chunk == 0) return Percentile(values_, q);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return end_ns_[a] < end_ns_[b]; });
  double weighted = 0;
  for (size_t begin = 0; begin < n;) {
    const size_t end = n - begin < 2 * chunk ? n : begin + chunk;
    std::vector<double> run;
    for (size_t i = begin; i < end; ++i) run.push_back(values_[order[i]]);
    const std::optional<double> p = Percentile(run, q);
    if (!p.has_value()) return std::nullopt;
    weighted += *p * static_cast<double>(end - begin);
    begin = end;
  }
  return weighted / static_cast<double>(n);
}

}  // namespace e2ebench
