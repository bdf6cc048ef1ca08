// Unit test of the benchmark's exact nearest-rank percentile helpers.
// Registered with ctest by surfer_bench/CMakeLists.txt; exits nonzero on
// the first failed expectation.

#include <cstdio>
#include <vector>

#include "percentile.h"

namespace {

int failures = 0;

void ExpectEq(double actual, double expected, const char* what) {
  if (actual != expected) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, actual,
                 expected);
    ++failures;
  }
}

}  // namespace

int main() {
  using surfer_bench::NearestRank;
  using surfer_bench::Percentile;

  ExpectEq(NearestRank({}, 50.0), 0.0, "empty sample");
  ExpectEq(NearestRank({7.0}, 0.0), 7.0, "single sample p0");
  ExpectEq(NearestRank({7.0}, 99.0), 7.0, "single sample p99");

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  ExpectEq(NearestRank(hundred, 0.0), 1.0, "1..100 p0 is the minimum");
  ExpectEq(NearestRank(hundred, 1.0), 1.0, "1..100 p1");
  ExpectEq(NearestRank(hundred, 50.0), 50.0, "1..100 p50");
  ExpectEq(NearestRank(hundred, 90.0), 90.0, "1..100 p90");
  ExpectEq(NearestRank(hundred, 99.0), 99.0, "1..100 p99");
  ExpectEq(NearestRank(hundred, 99.5), 100.0, "1..100 p99.5 rounds up");
  ExpectEq(NearestRank(hundred, 100.0), 100.0, "1..100 p100 is the maximum");

  // 99.9 is not exactly representable; rank 999 of 1000 must not become 1000.
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) {
    thousand.push_back(i);
  }
  ExpectEq(NearestRank(thousand, 99.9), 999.0, "1..1000 p99.9");
  ExpectEq(NearestRank(thousand, 99.0), 990.0, "1..1000 p99");

  // Values between log2 buckets stay exact (the Histogram would report 128).
  ExpectEq(Percentile({101.0, 97.0, 103.0, 99.0}, 50.0), 99.0,
           "unsorted input, exact value");

  // Quartiles are the 25th and 75th nearest-rank percentiles.
  const std::vector<double> four = {1.0, 2.0, 3.0, 4.0};
  ExpectEq(NearestRank(four, 25.0), 1.0, "q1 of 1..4");
  ExpectEq(NearestRank(four, 50.0), 2.0, "median of 1..4");
  ExpectEq(NearestRank(four, 75.0), 3.0, "q3 of 1..4");

  if (failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("percentile_test: all expectations passed\n");
  return 0;
}
