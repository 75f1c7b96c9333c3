// Tests for the deterministic PRNG stack: stream determinism, distribution
// moments, exact binomial tails (the property the stability statistics
// depend on), and bounded sampling.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"

namespace xpuf {
namespace {

TEST(SplitMix64, IsDeterministicAndMixing) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
  SplitMix64 c(123), d(124);
  // Adjacent seeds must not produce adjacent outputs.
  EXPECT_NE(c.next(), d.next());
}

TEST(SplitMix64, AnyOutputIsTheMixOfItsOwnState) {
  // Output k of SplitMix64(s) is mix(s + (k + 1) * gamma): the identity
  // StreamFamily::first_u64 uses to skip the outputs it does not need.
  Rng seeds(99);
  for (int trial = 0; trial < 16; ++trial) {
    const std::uint64_t s = seeds.next_u64();
    SplitMix64 sm(s);
    for (std::uint64_t k = 0; k < 8; ++k)
      EXPECT_EQ(sm.next(), SplitMix64::mix(s + (k + 1) * SplitMix64::kGamma));
  }
}

TEST(StreamFamily, FirstDrawEqualsTheStreamsFirstOutput) {
  // The three-round shortcut must equal the full five-round path for any
  // base and index, including the index extremes where index + 1 and the
  // gamma multiple wrap.
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const std::uint64_t edges[] = {0, 1, (std::uint64_t{1} << 32) - 1, std::uint64_t{1} << 63,
                                 kMax};
  Rng rng(2024);
  std::vector<std::uint64_t> bases = {0, 1, kMax};
  for (int i = 0; i < 32; ++i) bases.push_back(rng.next_u64());
  for (const std::uint64_t base : bases) {
    const StreamFamily family(base);
    for (const std::uint64_t index : edges)
      EXPECT_EQ(family.first_u64(index), family.stream(index).next_u64())
          << "base " << base << " index " << index;
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t index = rng.next_u64();
      EXPECT_EQ(family.first_u64(index), family.stream(index).next_u64())
          << "base " << base << " index " << index;
    }
  }
}

TEST(Rng, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(2);
  for (int i = 0; i < 1'000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng(2);
  EXPECT_THROW(rng.uniform(1.0, 0.0), std::invalid_argument);
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(3);
  std::vector<double> xs(100'000);
  for (auto& x : xs) x = rng.uniform();
  EXPECT_NEAR(mean(xs), 0.5, 0.01);
  EXPECT_NEAR(variance(xs), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformBelowStaysBelow) {
  Rng rng(4);
  for (std::uint64_t n : {1ULL, 2ULL, 7ULL, 100ULL, 1'000'000ULL}) {
    for (int i = 0; i < 1'000; ++i) EXPECT_LT(rng.uniform_below(n), n);
  }
}

TEST(Rng, UniformBelowOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_below(1), 0u);
}

TEST(Rng, UniformBelowZeroThrows) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform_below(0), std::invalid_argument);
}

TEST(Rng, UniformBelowCoversAllResidues) {
  Rng rng(6);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1'000; ++i) seen.insert(rng.uniform_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NormalMomentsMatchStandard) {
  Rng rng(7);
  std::vector<double> xs(200'000);
  for (auto& x : xs) x = rng.normal();
  EXPECT_NEAR(mean(xs), 0.0, 0.01);
  EXPECT_NEAR(stddev(xs), 1.0, 0.01);
}

TEST(Rng, NormalTailFractionIsPlausible) {
  Rng rng(8);
  int beyond2 = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i)
    if (std::fabs(rng.normal()) > 2.0) ++beyond2;
  // P(|Z| > 2) = 4.55%.
  EXPECT_NEAR(static_cast<double>(beyond2) / n, 0.0455, 0.005);
}

TEST(Rng, NormalScalesMeanAndSigma) {
  Rng rng(9);
  std::vector<double> xs(100'000);
  for (auto& x : xs) x = rng.normal(10.0, 3.0);
  EXPECT_NEAR(mean(xs), 10.0, 0.05);
  EXPECT_NEAR(stddev(xs), 3.0, 0.05);
}

TEST(Rng, NormalRejectsNegativeSigma) {
  Rng rng(9);
  EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, BernoulliFairCoinIsBalanced) {
  Rng rng(10);
  int ones = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli()) ++ones;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.01);
}

TEST(Rng, BernoulliBiasedMatchesProbability) {
  Rng rng(11);
  int ones = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.2)) ++ones;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.2, 0.01);
}

TEST(Rng, BinomialDegenerateCases) {
  Rng rng(12);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
}

TEST(Rng, BinomialRejectsBadProbability) {
  Rng rng(12);
  EXPECT_THROW(rng.binomial(10, -0.1), std::invalid_argument);
  EXPECT_THROW(rng.binomial(10, 1.1), std::invalid_argument);
}

TEST(Rng, BinomialStaysInRange) {
  Rng rng(13);
  for (int i = 0; i < 10'000; ++i) EXPECT_LE(rng.binomial(50, 0.3), 50u);
}

TEST(Rng, BinomialSmallRegimeMoments) {
  Rng rng(14);
  const std::uint64_t n = 40;
  const double p = 0.1;  // n*p = 4 -> inversion path
  std::vector<double> xs(100'000);
  for (auto& x : xs) x = static_cast<double>(rng.binomial(n, p));
  EXPECT_NEAR(mean(xs), 4.0, 0.05);
  EXPECT_NEAR(variance(xs), 3.6, 0.15);
}

TEST(Rng, BinomialBulkRegimeMoments) {
  Rng rng(15);
  const std::uint64_t n = 10'000;
  const double p = 0.4;  // normal-approximation path
  std::vector<double> xs(50'000);
  for (auto& x : xs) x = static_cast<double>(rng.binomial(n, p));
  EXPECT_NEAR(mean(xs), 4000.0, 2.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(2400.0), 1.5);
}

TEST(Rng, BinomialMirrorsHighP) {
  Rng rng(16);
  const std::uint64_t n = 40;
  std::vector<double> xs(100'000);
  for (auto& x : xs) x = static_cast<double>(rng.binomial(n, 0.9));
  EXPECT_NEAR(mean(xs), 36.0, 0.05);
}

TEST(Rng, BinomialAllZeroTailIsExact) {
  // The "100% stable" statistic: P(X == 0) must equal (1-p)^n even when
  // n is large and p is tiny. n = 10'000, p = 5e-5 -> P(0) = 0.6065.
  Rng rng(17);
  const std::uint64_t n = 10'000;
  const double p = 5e-5;
  const double expected = std::exp(static_cast<double>(n) * std::log1p(-p));
  int zeros = 0;
  const int samples = 200'000;
  for (int i = 0; i < samples; ++i)
    if (rng.binomial(n, p) == 0) ++zeros;
  EXPECT_NEAR(static_cast<double>(zeros) / samples, expected, 0.005);
}

TEST(Rng, BinomialAllOnesTailIsExact) {
  Rng rng(18);
  const std::uint64_t n = 10'000;
  const double p = 1.0 - 5e-5;
  const double expected = std::exp(static_cast<double>(n) * std::log1p(-(1.0 - p)));
  int full = 0;
  const int samples = 200'000;
  for (int i = 0; i < samples; ++i)
    if (rng.binomial(n, p) == n) ++full;
  EXPECT_NEAR(static_cast<double>(full) / samples, expected, 0.005);
}

TEST(Rng, ForkedStreamsAreDecorrelated) {
  Rng parent(19);
  Rng child1 = parent.fork();
  Rng child2 = parent.fork();
  int same = 0;
  for (int i = 0; i < 1'000; ++i)
    if (child1.next_u64() == child2.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsDeterministicGivenParentState) {
  Rng a(20), b(20);
  Rng ca = a.fork();
  Rng cb = b.fork();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyMoves) {
  Rng rng(22);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  const auto before = v;
  rng.shuffle(v);
  EXPECT_NE(v, before);
}

// Chi-squared sanity for uniform_below over a parameter sweep of moduli.
class RngModuloSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngModuloSweep, UniformBelowIsUnbiased) {
  const std::uint64_t n = GetParam();
  Rng rng(100 + n);
  std::vector<std::size_t> counts(n, 0);
  const std::size_t draws = 20'000 * n;
  for (std::size_t i = 0; i < draws; ++i) ++counts[rng.uniform_below(n)];
  const double expected = static_cast<double>(draws) / static_cast<double>(n);
  double chi2 = 0.0;
  for (std::size_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  // 99.9th percentile of chi2 with n-1 dof, generous bound: 3 * (n - 1) + 20.
  EXPECT_LT(chi2, 3.0 * static_cast<double>(n - 1) + 20.0);
}

INSTANTIATE_TEST_SUITE_P(Moduli, RngModuloSweep,
                         ::testing::Values(2ULL, 3ULL, 5ULL, 8ULL, 13ULL, 32ULL));

}  // namespace
}  // namespace xpuf
