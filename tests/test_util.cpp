// Unit tests for the util substrate: RNG, integer math, fitting, tables,
// and the parallel_for worker group.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/fit.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace cca {
namespace {

// Exercise real worker threads even on single-core machines: request four
// workers before the first parallel_for freezes the count. overwrite=0
// keeps an explicit CCA_THREADS (e.g. the CI serial leg) authoritative.
[[maybe_unused]] const int kForcedThreads = [] {
  setenv("CCA_THREADS", "4", /*overwrite=*/0);
  return 0;
}();

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_below(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(21);
  Rng child = parent.split();
  EXPECT_NE(parent.next(), child.next());
}

class RootsSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(RootsSweep, IsqrtExact) {
  const auto x = GetParam();
  const auto r = isqrt(x);
  EXPECT_LE(r * r, x);
  EXPECT_GT((r + 1) * (r + 1), x);
}

TEST_P(RootsSweep, IcbrtExact) {
  const auto x = GetParam();
  const auto r = icbrt(x);
  EXPECT_LE(r * r * r, x);
  EXPECT_GT((r + 1) * (r + 1) * (r + 1), x);
}

INSTANTIATE_TEST_SUITE_P(Values, RootsSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 7, 8, 9, 26, 27, 28,
                                           63, 64, 65, 99, 1000, 12166, 12167,
                                           12168, 1000000, 999999999999LL));

TEST(Math, PerfectPredicates) {
  EXPECT_TRUE(is_perfect_square(0));
  EXPECT_TRUE(is_perfect_square(49));
  EXPECT_FALSE(is_perfect_square(50));
  EXPECT_TRUE(is_perfect_cube(27));
  EXPECT_FALSE(is_perfect_cube(28));
  EXPECT_FALSE(is_perfect_square(-4));
}

TEST(Math, NextCubeAndSquare) {
  EXPECT_EQ(next_cube(0), 0);
  EXPECT_EQ(next_cube(1), 1);
  EXPECT_EQ(next_cube(2), 8);
  EXPECT_EQ(next_cube(27), 27);
  EXPECT_EQ(next_cube(28), 64);
  EXPECT_EQ(next_square(17), 25);
  EXPECT_EQ(next_square(25), 25);
}

TEST(Math, NextSquareWithRootMultiple) {
  EXPECT_EQ(next_square_with_root_multiple(49, 2), 64);   // sqrt 8
  EXPECT_EQ(next_square_with_root_multiple(64, 8), 64);   // sqrt 8
  EXPECT_EQ(next_square_with_root_multiple(65, 8), 256);  // sqrt 16
  EXPECT_EQ(next_square_with_root_multiple(1, 1), 1);
}

TEST(Math, Pow2Helpers) {
  EXPECT_EQ(floor_pow2(1), 1);
  EXPECT_EQ(floor_pow2(7), 4);
  EXPECT_EQ(floor_pow2(8), 8);
  EXPECT_EQ(ceil_pow2(5), 8);
  EXPECT_EQ(ceil_pow2(8), 8);
  EXPECT_EQ(ilog2(1), 0);
  EXPECT_EQ(ilog2(7), 2);
  EXPECT_EQ(ilog2(8), 3);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 3), 0);
  EXPECT_EQ(ceil_div(1, 3), 1);
  EXPECT_EQ(ceil_div(3, 3), 1);
  EXPECT_EQ(ceil_div(4, 3), 2);
}

TEST(Math, MixedRadixRoundTrip) {
  const std::vector<std::int64_t> radices{4, 5, 3};
  for (std::int64_t v = 0; v < 60; ++v) {
    const auto digits = mixed_radix(v, radices);
    ASSERT_EQ(digits.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_GE(digits[i], 0);
      EXPECT_LT(digits[i], radices[i]);
    }
    EXPECT_EQ(from_mixed_radix(digits, radices), v);
  }
}

TEST(Fit, RecoversExactPowerLaw) {
  std::vector<double> xs, ys;
  for (const double x : {8.0, 27.0, 64.0, 125.0, 343.0}) {
    xs.push_back(x);
    ys.push_back(2.5 * std::pow(x, 0.33));
  }
  const auto f = fit_power_law(xs, ys);
  EXPECT_NEAR(f.exponent, 0.33, 1e-9);
  EXPECT_NEAR(f.coefficient, 2.5, 1e-9);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-9);
}

TEST(Fit, NoisyDataStillClose) {
  std::vector<double> xs, ys;
  double wiggle = 0.9;
  for (const double x : {10.0, 100.0, 1000.0, 10000.0}) {
    xs.push_back(x);
    ys.push_back(3.0 * std::pow(x, 0.5) * wiggle);
    wiggle = 2.0 - wiggle;  // alternate 0.9 / 1.1
  }
  const auto f = fit_power_law(xs, ys);
  EXPECT_NEAR(f.exponent, 0.5, 0.05);
}

TEST(Fit, ConstantSeriesHasZeroExponent) {
  const auto f = fit_power_law({2, 4, 8, 16}, {5, 5, 5, 5});
  EXPECT_NEAR(f.exponent, 0.0, 1e-12);
  EXPECT_NEAR(f.coefficient, 5.0, 1e-9);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_int(-42), "-42");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
}

// ---------------------------------------------------------------------------
// parallel_for

/// Runs parallel_for over [begin, end) and returns how often each index of
/// [lo, hi) ran, plus the calls that fell outside it.
std::vector<int> index_hits(int begin, int end, int lo, int hi) {
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(hi - lo + 1));
  parallel_for(begin, end, [&](int i) {
    const int slot = i < lo || i >= hi ? hi - lo : i - lo;
    hits[static_cast<std::size_t>(slot)].fetch_add(1);
  });
  std::vector<int> out;
  for (const auto& h : hits) out.push_back(h.load());
  return out;
}

/// index_hits' answer when every index of an n-index range ran once.
std::vector<int> each_once(int n) {
  std::vector<int> want(static_cast<std::size_t>(n), 1);
  want.push_back(0);
  return want;
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  const int w = parallel_workers();
  // Empty and reversed ranges run nothing.
  for (const auto& [b, e] :
       {std::pair{0, 0}, std::pair{5, 5}, std::pair{7, 3}})
    EXPECT_EQ(index_hits(b, e, -8, 16), std::vector<int>(25, 0));
  // One index, fewer indices than workers, exactly the workers, a ragged
  // large range, and a range that does not start at 0.
  for (const auto& [b, e] :
       {std::pair{0, 1}, std::pair{0, std::max(1, w - 1)}, std::pair{0, w},
        std::pair{0, 2}, std::pair{0, 3}, std::pair{0, 10007},
        std::pair{-5, 37}})
    EXPECT_EQ(index_hits(b, e, b, e), each_once(e - b))
        << "[" << b << ", " << e << ")";
}

TEST(ParallelFor, EveryCallDrawsAFreshEpoch) {
  EXPECT_EQ(parallel_region_epoch(), 0u);
  EXPECT_FALSE(in_parallel_region());
  const int w = parallel_workers();
  std::set<std::uint64_t> seen;
  for (const int count : {1, 2, w, 3 * w + 1, 1, 64}) {
    std::vector<std::uint64_t> epochs(static_cast<std::size_t>(count));
    parallel_for(0, count, [&](int i) {
      EXPECT_TRUE(in_parallel_region());
      epochs[static_cast<std::size_t>(i)] = parallel_region_epoch();
    });
    const std::uint64_t e = epochs.front();
    EXPECT_NE(e, 0u);
    for (const auto x : epochs) EXPECT_EQ(x, e) << "count " << count;
    EXPECT_TRUE(seen.insert(e).second) << "epoch reused: " << e;
  }
  EXPECT_EQ(parallel_region_epoch(), 0u);
  EXPECT_FALSE(in_parallel_region());
}

TEST(ParallelFor, NestedCallRunsInlineUnderItsOwnEpoch) {
  constexpr int kOuter = 8;
  constexpr int kInner = 16;
  std::vector<std::uint64_t> outer(kOuter), after(kOuter);
  std::vector<std::vector<std::uint64_t>> inner(
      kOuter, std::vector<std::uint64_t>(kInner));
  std::vector<int> foreign(kOuter, 0);
  parallel_for(0, kOuter, [&](int o) {
    const auto os = static_cast<std::size_t>(o);
    outer[os] = parallel_region_epoch();
    const std::uint32_t me = thread_token();
    parallel_for(0, kInner, [&](int i) {
      inner[os][static_cast<std::size_t>(i)] = parallel_region_epoch();
      if (thread_token() != me) ++foreign[os];  // only this thread writes
    });
    after[os] = parallel_region_epoch();
  });
  std::set<std::uint64_t> inner_epochs;
  for (int o = 0; o < kOuter; ++o) {
    const auto os = static_cast<std::size_t>(o);
    EXPECT_EQ(foreign[os], 0) << "nested call left its thread";
    EXPECT_EQ(after[os], outer[os]) << "nested call clobbered the epoch";
    for (const auto e : inner[os]) {
      EXPECT_NE(e, 0u);
      EXPECT_NE(e, outer[os]);
      EXPECT_EQ(e, inner[os][0]);
    }
    EXPECT_TRUE(inner_epochs.insert(inner[os][0]).second);
  }
}

TEST(ParallelFor, ConcurrentCallersEachCoverTheirRange) {
  constexpr int kCalls = 300;
  constexpr int kCount = 64;
  auto caller = [](std::vector<int>& hits, std::vector<std::uint64_t>& eps) {
    std::vector<std::atomic<int>> h(kCount);
    for (int c = 0; c < kCalls; ++c) {
      std::atomic<std::uint64_t> epoch{0};
      parallel_for(0, kCount, [&](int i) {
        h[static_cast<std::size_t>(i)].fetch_add(1);
        epoch.store(parallel_region_epoch());
      });
      eps.push_back(epoch.load());
    }
    for (const auto& x : h) hits.push_back(x.load());
  };
  std::vector<int> hits_a, hits_b;
  std::vector<std::uint64_t> eps_a, eps_b;
  std::thread a(caller, std::ref(hits_a), std::ref(eps_a));
  std::thread b(caller, std::ref(hits_b), std::ref(eps_b));
  a.join();
  b.join();
  EXPECT_EQ(hits_a, std::vector<int>(kCount, kCalls));
  EXPECT_EQ(hits_b, std::vector<int>(kCount, kCalls));
  std::set<std::uint64_t> all(eps_a.begin(), eps_a.end());
  all.insert(eps_b.begin(), eps_b.end());
  EXPECT_EQ(all.size(), 2u * kCalls);
  EXPECT_EQ(all.count(0), 0u);
}

TEST(ParallelFor, CallerExceptionPropagatesAfterHelpersFinish) {
  const int w = parallel_workers();
  if (w < 2) GTEST_SKIP() << "needs >= 2 workers (CCA_THREADS=1 leg)";
  // Index 0 is the caller's own block; every other index is a helper's
  // and is still running when the caller throws.
  std::vector<std::atomic<bool>> done(static_cast<std::size_t>(w));
  const std::uint32_t caller = thread_token();
  EXPECT_THROW(parallel_for(0, w,
                            [&](int i) {
                              if (i == 0) {
                                EXPECT_EQ(thread_token(), caller);
                                throw std::runtime_error("block 0");
                              }
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(50));
                              done[static_cast<std::size_t>(i)].store(true);
                            }),
               std::runtime_error);
  for (int i = 1; i < w; ++i)
    EXPECT_TRUE(done[static_cast<std::size_t>(i)].load()) << "helper " << i;
  EXPECT_FALSE(in_parallel_region());
  // The group is usable again.
  EXPECT_EQ(index_hits(0, 4 * w, 0, 4 * w), each_once(4 * w));
}

TEST(ParallelFor, HelperExceptionReachesTheCaller) {
  const int w = parallel_workers();
  if (w < 2) GTEST_SKIP() << "needs >= 2 workers (CCA_THREADS=1 leg)";
  // The last index sits in the last helper's block.
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(w));
  EXPECT_THROW(parallel_for(0, w,
                            [&](int i) {
                              hits[static_cast<std::size_t>(i)].fetch_add(1);
                              if (i == w - 1) throw std::runtime_error("last");
                            }),
               std::runtime_error);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_FALSE(in_parallel_region());
}

TEST(ParallelFor, RegionsReuseOneWorkerGroup) {
  // Every region runs on the same parallel_workers() threads, so the
  // thread tokens minted stay bounded however many regions run.
  const int w = parallel_workers();
  std::vector<std::uint32_t> tokens(static_cast<std::size_t>(w));
  std::set<std::uint32_t> seen;
  for (int r = 0; r < 10000; ++r) {
    parallel_for(0, w, [&](int i) {
      tokens[static_cast<std::size_t>(i)] = thread_token();
    });
    seen.insert(tokens.begin(), tokens.end());
  }
  EXPECT_LE(seen.size(), static_cast<std::size_t>(w));
}

TEST(ParallelFor, MixedBlockCounts) {
  // Regions alternate between using every helper and leaving some idle,
  // so helpers keep skipping generations that have no block for them.
  const int w = parallel_workers();
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(w + 1));
  constexpr int kRegions = 5000;
  for (int r = 0; r < kRegions; ++r)
    parallel_for(0, 1 + r % (w + 1), [&](int i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    });
  for (int i = 0; i <= w; ++i) {
    int want = 0;
    for (int len = 1; len <= w + 1; ++len)
      if (i < len) want += kRegions / (w + 1) + (len - 1 < kRegions % (w + 1));
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), want) << "index " << i;
  }
}

}  // namespace
}  // namespace cca
