// Order statistics for the benchmark's reports. Percentiles use the
// nearest-rank rule with integer arithmetic, so "how many samples lie
// beyond" is exact; quartiles follow Python's statistics.quantiles(n=4)
// (the default "exclusive" method) so C++ and the A/B script agree.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples needed beyond a reported percentile (the tail-support rule).
inline constexpr size_t kTailSupport = 10;

/// Median of `v` (mean of the middle two for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Python statistics.quantiles(v, n=4): {Q1, Q2, Q3}. Needs >= 2 samples;
/// fewer yields the single value (or 0) three times.
std::array<double, 3> quartiles(std::vector<double> v);

struct Percentile {
  double value = 0;
  size_t beyond = 0;  // samples strictly after the nearest rank
};

/// Nearest-rank `pct`-th percentile of `v` (pct in 1..99).
Percentile percentile(std::vector<double> v, unsigned pct);

/// Smallest sample count whose `pct`-th percentile has at least
/// `beyond` samples after it (1000 for p99, 100 for p90).
size_t min_samples(unsigned pct, size_t beyond = kTailSupport);

}  // namespace perfbench
