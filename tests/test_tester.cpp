// Tests for the batch chip tester (the simulated PXI bench).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/tester.hpp"

namespace xpuf::sim {
namespace {

XorPufChip make_chip(std::size_t n_pufs, std::uint64_t seed) {
  DeviceParameters params;
  Rng rng(seed);
  return XorPufChip(0, n_pufs, params, EnvironmentModel{}, rng);
}

TEST(ChipTester, ValidatesTrials) {
  EXPECT_THROW(ChipTester(Environment::nominal(), 0, Rng(1)), std::invalid_argument);
}

TEST(ChipTester, RandomChallengesMatchChipGeometry) {
  const auto chip = make_chip(2, 1);
  ChipTester tester(Environment::nominal(), 100, Rng(2));
  const auto challenges = tester.random_challenges(chip, 17);
  ASSERT_EQ(challenges.size(), 17u);
  for (const auto& c : challenges) EXPECT_EQ(c.size(), chip.stages());
}

TEST(ChipTester, ScanIndividualShapesAndConsistency) {
  const auto chip = make_chip(3, 3);
  ChipTester tester(Environment::nominal(), 1'000, Rng(4));
  const auto challenges = tester.random_challenges(chip, 25);
  const ChipSoftScan scan = tester.scan_individual(chip, challenges);
  ASSERT_EQ(scan.soft.size(), 3u);
  ASSERT_EQ(scan.stable.size(), 3u);
  ASSERT_EQ(scan.challenges.size(), 25u);
  EXPECT_EQ(scan.trials, 1'000u);
  EXPECT_TRUE(scan.environment == Environment::nominal());
  for (std::size_t p = 0; p < 3; ++p) {
    ASSERT_EQ(scan.soft[p].size(), 25u);
    for (std::size_t c = 0; c < 25; ++c) {
      EXPECT_GE(scan.soft[p][c], 0.0);
      EXPECT_LE(scan.soft[p][c], 1.0);
      // Stability flag consistent with soft value.
      if (scan.stable[p][c]) {
        EXPECT_TRUE(scan.soft[p][c] == 0.0 || scan.soft[p][c] == 1.0);
      }
    }
  }
}

TEST(ChipTester, IsDeterministicPerSeed) {
  const auto chip = make_chip(2, 11);
  ChipTester t1(Environment::nominal(), 1'000, Rng(12));
  ChipTester t2(Environment::nominal(), 1'000, Rng(12));
  const auto c1 = t1.random_challenges(chip, 20);
  const auto c2 = t2.random_challenges(chip, 20);
  ASSERT_EQ(c1.size(), c2.size());
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_EQ(c1[i], c2[i]);
  const auto s1 = t1.scan_individual(chip, c1);
  const auto s2 = t2.scan_individual(chip, c2);
  EXPECT_EQ(s1.soft, s2.soft);
}

TEST(ChipTester, EnvironmentCanBeRetargeted) {
  ChipTester tester(Environment::nominal(), 100, Rng(13));
  tester.set_environment({0.8, 60.0});
  EXPECT_TRUE(tester.environment() == (Environment{0.8, 60.0}));
}

TEST(ChipTester, ScanFailsOnDeployedChip) {
  auto chip = make_chip(2, 14);
  chip.blow_fuses();
  ChipTester tester(Environment::nominal(), 100, Rng(15));
  const auto challenges = tester.random_challenges(chip, 3);
  EXPECT_THROW(tester.scan_individual(chip, challenges), xpuf::AccessError);
  // The XOR pin still answers.
  Rng rng(16);
  for (const auto& c : challenges) EXPECT_NO_THROW(chip.xor_response(c, tester.environment(), rng));
}

}  // namespace
}  // namespace xpuf::sim
