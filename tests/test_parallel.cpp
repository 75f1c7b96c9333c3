// Property tests for the deterministic parallel execution layer
// (common/parallel.hpp): the pool must cover every index exactly once,
// propagate exceptions, survive nested use — and above all, every
// stochastic workload built on it must produce BIT-IDENTICAL results for
// 1, 2, and 8 threads, pinned by golden values so the chunk/stream
// convention cannot drift silently.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "ml/mlp.hpp"
#include "puf/attack.hpp"
#include "sim/population.hpp"
#include "sim/tester.hpp"

namespace xpuf {
namespace {

// Golden constants recorded from a 1-thread run of reference_scan(); see
// ScanMatchesGoldenValues for what they pin.
constexpr double kGoldenSoft01 = 0.005;  // an unstable cell: 1 flip in 200 trials
constexpr double kGoldenSoft17 = 0.96;
constexpr double kGoldenSoftSum = 549.08499999999992;
constexpr std::size_t kGoldenStableCount = 1058;

/// Runs `f` with the global pool sized to each of 1, 2, and 8 lanes and
/// checks every result equals the 1-lane result. Restores an 8-lane pool.
template <typename F>
void expect_identical_across_thread_counts(const F& f) {
  ThreadPool::set_global_threads(1);
  const auto reference = f();
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool::set_global_threads(threads);
    EXPECT_EQ(f(), reference) << "result changed at " << threads << " threads";
  }
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool::set_global_threads(8);
  const std::size_t n = 10'001;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(n, 7, [&](std::size_t begin, std::size_t end, std::size_t chunk_index) {
    EXPECT_EQ(begin, chunk_index * 7);
    EXPECT_LE(end, n);
    for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, EmptyAndSingleItemRanges) {
  std::atomic<int> calls{0};
  parallel_for(0, 16, [&](std::size_t, std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  parallel_for(1, 16, [&](std::size_t begin, std::size_t end, std::size_t chunk_index) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    EXPECT_EQ(chunk_index, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool::set_global_threads(8);
  EXPECT_THROW(parallel_for(1'000, 8,
                            [&](std::size_t begin, std::size_t, std::size_t) {
                              if (begin >= 496) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // The pool must still be usable after a failed loop.
  std::atomic<std::size_t> sum{0};
  parallel_for(100, 8, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 4'950u);
}

TEST(ParallelFor, NestedCallsFallBackToSerial) {
  ThreadPool::set_global_threads(8);
  std::vector<std::atomic<int>> visits(64 * 64);
  parallel_for(64, 4, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      parallel_for(64, 4, [&, i](std::size_t b2, std::size_t e2, std::size_t) {
        for (std::size_t j = b2; j < e2; ++j) visits[i * 64 + j].fetch_add(1);
      });
    }
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelReduce, ChunkOrderedFoldIsThreadCountInvariant) {
  // Summands chosen so floating-point addition order matters: a naive
  // scheduling-order reduction would differ run to run.
  const std::size_t n = 40'000;
  std::vector<double> values(n);
  Rng rng(99);
  for (auto& v : values) v = rng.uniform() * 1e8 - 5e7;
  expect_identical_across_thread_counts([&] {
    return parallel_reduce(
        n, 64, 0.0,
        [&](double& acc, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) acc += values[i];
        },
        [](double& acc, double part) { acc += part; });
  });
}

TEST(StreamFamily, ChildStreamsAreIndexPureAndDistinct) {
  Rng a(42);
  Rng b(42);
  const StreamFamily fa(a.fork_base());
  const StreamFamily fb(b.fork_base());
  EXPECT_EQ(fa.stream(17).next_u64(), fb.stream(17).next_u64());
  EXPECT_NE(fa.stream(17).next_u64(), fa.stream(18).next_u64());
  // The parent advanced identically: next draws still agree.
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

sim::ChipPopulation test_population(std::size_t n_pufs) {
  sim::PopulationConfig cfg;
  cfg.n_chips = 1;
  cfg.n_pufs_per_chip = n_pufs;
  cfg.seed = 2017;
  return sim::ChipPopulation(cfg);
}

/// One full scan_individual with a fixed seed; the binomial trial counters
/// inside make this the stochastic workload of interest.
sim::ChipSoftScan reference_scan(std::uint64_t trials = 200,
                                 std::size_t n_challenges = 300) {
  sim::ChipPopulation pop = test_population(4);
  Rng rng(1234);
  sim::ChipTester tester(sim::Environment::nominal(), trials, rng.fork());
  const auto challenges = tester.random_challenges(pop.chip(0), n_challenges);
  return tester.scan_individual(pop.chip(0), challenges);
}

TEST(ParallelDeterminism, ScanIndividualBitIdenticalAcrossThreadCounts) {
  expect_identical_across_thread_counts([] {
    const sim::ChipSoftScan scan = reference_scan();
    return std::make_pair(scan.soft, scan.stable);
  });
}

TEST(ParallelDeterminism, AttackDatasetBitIdenticalAcrossThreadCounts) {
  expect_identical_across_thread_counts([] {
    sim::ChipPopulation pop = test_population(3);
    Rng rng(555);
    puf::AttackDatasetConfig cfg;
    cfg.n_pufs = 3;
    cfg.challenges = 400;
    cfg.trials = 150;
    const puf::AttackDataset data =
        puf::build_stable_attack_dataset(pop.chip(0), cfg, rng);
    return std::make_tuple(data.train.x.raw(), data.train.y.raw(), data.test.x.raw(),
                           data.test.y.raw());
  });
}

TEST(ParallelDeterminism, MlpLossAndGradientBitIdenticalAcrossThreadCounts) {
  // Synthetic batch large enough to span many GEMM row chunks.
  const std::size_t n = 700, d = 33;
  linalg::Matrix x(n, d);
  linalg::Vector y(n);
  Rng rng(31);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) x(r, c) = rng.normal();
    y[r] = rng.uniform() < 0.5 ? 0.0 : 1.0;
  }
  ml::MlpOptions opt;
  opt.hidden_layers = {20, 12};
  ml::Mlp mlp(d, opt);
  expect_identical_across_thread_counts([&] {
    linalg::Vector grad(mlp.parameter_count());
    const double loss = mlp.loss_and_gradient(x, y, mlp.parameters(), grad);
    return std::make_pair(loss, grad.raw());
  });
}

// Golden values pin the RNG-splitting convention itself: if the chunking,
// StreamFamily keying, or reduction order ever changes, these constants
// (recorded from a 1-thread run) catch it even though the threads-vs-serial
// comparison above would still pass.
TEST(ParallelDeterminism, ScanMatchesGoldenValues) {
  ThreadPool::set_global_threads(8);
  const sim::ChipSoftScan scan = reference_scan();
  ASSERT_EQ(scan.soft.size(), 4u);
  ASSERT_EQ(scan.soft[0].size(), 300u);
  double sum = 0.0;
  std::size_t stable_count = 0;
  for (std::size_t p = 0; p < scan.soft.size(); ++p) {
    sum = std::accumulate(scan.soft[p].begin(), scan.soft[p].end(), sum);
    for (const bool s : scan.stable[p]) stable_count += s ? 1u : 0u;
  }
  EXPECT_DOUBLE_EQ(scan.soft[0][1], kGoldenSoft01);
  EXPECT_DOUBLE_EQ(scan.soft[1][7], kGoldenSoft17);
  EXPECT_DOUBLE_EQ(sum, kGoldenSoftSum);
  EXPECT_EQ(stable_count, kGoldenStableCount);
}

}  // namespace
}  // namespace xpuf
