#include "stats.h"

#include <algorithm>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.size() < 2) {
    double x = v.empty() ? 0 : v[0];
    return {x, x, x};
  }
  std::sort(v.begin(), v.end());
  const size_t ld = v.size();
  const size_t m = ld + 1;
  std::array<double, 3> q{};
  for (size_t i = 1; i <= 3; ++i) {
    size_t j = std::clamp<size_t>(i * m / 4, 1, ld - 1);
    double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    q[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  }
  return q;
}

Percentile percentile(std::vector<double> v, unsigned pct) {
  Percentile p;
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t rank = std::max<size_t>(1, (pct * n + 99) / 100);
  p.value = v[rank - 1];
  p.beyond = n - rank;
  return p;
}

size_t min_samples(unsigned pct, size_t beyond) {
  size_t n = 1;
  while (n - std::max<size_t>(1, (pct * n + 99) / 100) < beyond) ++n;
  return n;
}

}  // namespace perfbench
