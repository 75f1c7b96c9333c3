// Streaming-vs-materialized equivalence suite.
//
// The streaming enrollment pipeline promises bit-identical results to the
// materialized path for any chunk size and any thread count. These tests pin
// that promise at every layer: the chunked scan producer against
// scan_individual and the per-cell stage walk (oracles/scan_reference.hpp),
// the normal-equations accumulator against the one-shot gram/Cholesky
// kernels, the end-to-end Enroller::enroll against the whole-scan
// enroll_reference (oracles/enroll_reference.hpp), and the GEMM-backed
// logistic-regression objective against a scalar replica of the historical
// row-loop math.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/math.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/streaming.hpp"
#include "oracles/enroll_reference.hpp"
#include "oracles/scan_reference.hpp"
#include "puf/enrollment.hpp"
#include "sim/population.hpp"
#include "sim/tester.hpp"

namespace xpuf {
namespace {

using sim::Challenge;

/// Restores the global lane count on scope exit so a failing assertion in a
/// multi-thread section cannot leak its thread count into later tests.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(ThreadPool::global_threads()) {}
  ~ThreadGuard() { ThreadPool::set_global_threads(saved_); }

 private:
  std::uint64_t saved_;
};

sim::PopulationConfig small_lot() {
  sim::PopulationConfig cfg;
  cfg.n_chips = 1;
  cfg.n_pufs_per_chip = 3;
  cfg.seed = 4242;
  return cfg;
}

/// Drains a stream into materialized-scan shape (soft[p][c], stable[p][c]).
struct CollectedScan {
  std::vector<std::vector<Challenge>> chunks;
  std::vector<std::vector<double>> soft;
  std::vector<std::vector<std::uint8_t>> stable;
};

CollectedScan collect(sim::ChipScanStream& stream, std::size_t n_pufs) {
  CollectedScan out;
  out.soft.resize(n_pufs);
  out.stable.resize(n_pufs);
  sim::ScanChunk chunk;
  while (stream.next(chunk)) {
    out.chunks.push_back(chunk.block.challenges());
    for (std::size_t p = 0; p < n_pufs; ++p) {
      out.soft[p].insert(out.soft[p].end(), chunk.soft[p].begin(), chunk.soft[p].end());
      out.stable[p].insert(out.stable[p].end(), chunk.stable[p].begin(),
                           chunk.stable[p].end());
    }
  }
  return out;
}

/// What a streamed scan is checked against: the per-cell stage walk oracle,
/// or the library's materialized scan (ChipTester::scan_individual). Both
/// must equal the stream cell for cell.
enum class ScanOracle { kStageWalk, kMaterialized };

/// The oracle's scan of `total` challenges drawn as a ChipTester built on
/// `tester_rng` would draw them, plus that tester's next 8 challenges (its
/// generator state after the scan).
struct OracleScan {
  std::vector<Challenge> challenges;
  sim::ChipSoftScan scan;
  std::vector<Challenge> next;
};

OracleScan oracle_scan(ScanOracle oracle, const sim::XorPufChip& chip,
                       const sim::Environment& env, std::uint64_t trials, std::size_t total,
                       Rng tester_rng) {
  OracleScan out;
  if (oracle == ScanOracle::kMaterialized) {
    sim::ChipTester tester(env, trials, tester_rng);
    out.challenges = tester.random_challenges(chip, total);
    out.scan = tester.scan_individual(chip, out.challenges);
    out.next = tester.random_challenges(chip, 8);
  } else {
    out.challenges = sim::random_challenges(chip.stages(), total, tester_rng);
    out.scan = sim::scan_reference(chip, out.challenges, env, trials, tester_rng);
    out.next = sim::random_challenges(chip.stages(), 8, tester_rng);
  }
  return out;
}

void expect_stream_equals(const CollectedScan& streamed, const sim::ChipSoftScan& scan,
                          std::size_t n_pufs) {
  std::vector<Challenge> streamed_challenges;
  for (const auto& c : streamed.chunks)
    streamed_challenges.insert(streamed_challenges.end(), c.begin(), c.end());
  EXPECT_EQ(streamed_challenges, scan.challenges);
  for (std::size_t p = 0; p < n_pufs; ++p) {
    ASSERT_EQ(streamed.soft[p].size(), scan.soft[p].size());
    for (std::size_t c = 0; c < scan.soft[p].size(); ++c) {
      EXPECT_EQ(streamed.soft[p][c], scan.soft[p][c]) << "PUF " << p << " cell " << c;
      EXPECT_EQ(streamed.stable[p][c] != 0, scan.stable[p][c] == true);
    }
  }
}

class ScanStreamTest : public ::testing::TestWithParam<ScanOracle> {
 protected:
  ScanStreamTest() : pop_(small_lot()) {}
  sim::ChipPopulation pop_;
};

TEST_P(ScanStreamTest, MatchesMaterializedScanCellForCell) {
  const std::size_t total = 150;
  Rng r1(77), r2(77);
  sim::ChipTester streamer(sim::Environment::nominal(), 500, r1.fork());
  sim::ChipScanStream stream = streamer.stream_individual(pop_.chip(0), total, 64);
  const CollectedScan streamed = collect(stream, 3);

  const OracleScan want =
      oracle_scan(GetParam(), pop_.chip(0), sim::Environment::nominal(), 500, total, r2.fork());
  expect_stream_equals(streamed, want.scan, 3);

  // The stream pre-advances the tester's generator past the challenge draws
  // at construction, so the streamer ends in the oracle's state: their next
  // challenge batches must agree draw for draw.
  EXPECT_EQ(streamer.random_challenges(pop_.chip(0), 8), want.next);
}

TEST_P(ScanStreamTest, ChunkSizeNeverChangesTheBits) {
  const std::size_t total = 101;  // prime-ish: exercises ragged final chunks
  Rng oracle_rng(99);
  const OracleScan want = oracle_scan(GetParam(), pop_.chip(0), sim::Environment::nominal(),
                                      300, total, oracle_rng.fork());
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{4096}}) {
    SCOPED_TRACE(::testing::Message() << "chunk " << chunk);
    Rng rng(99);
    sim::ChipTester tester(sim::Environment::nominal(), 300, rng.fork());
    sim::ChipScanStream stream = tester.stream_individual(pop_.chip(0), total, chunk);
    expect_stream_equals(collect(stream, 3), want.scan, 3);
  }
}

INSTANTIATE_TEST_SUITE_P(BothModes, ScanStreamTest,
                         ::testing::Values(ScanOracle::kMaterialized, ScanOracle::kStageWalk));

// The one scan kernel against the stage walk at every paper corner, at 1/2/8
// threads and chunk sizes 1/64/4096, with equal tester.measurements totals
// (one per cell on both sides).
TEST(ScanStream, MatchesTheStageWalkAcrossCornersThreadsAndChunks) {
  ThreadGuard guard;
  static Counter& measurements = MetricsRegistry::global().counter("tester.measurements");
  sim::ChipPopulation pop(small_lot());
  const std::size_t total = 97;
  for (const auto& env : sim::paper_corner_grid()) {
    ThreadPool::set_global_threads(1);
    Rng oracle_rng(2024);
    const std::uint64_t walk_before = measurements.total();
    const OracleScan want =
        oracle_scan(ScanOracle::kStageWalk, pop.chip(0), env, 250, total, oracle_rng.fork());
    const std::uint64_t walk_count = measurements.total() - walk_before;
    EXPECT_EQ(walk_count, total * 3);
    for (const std::uint64_t threads : {1u, 2u, 8u}) {
      ThreadPool::set_global_threads(threads);
      for (const std::size_t chunk : {std::size_t{1}, std::size_t{64}, std::size_t{4096}}) {
        SCOPED_TRACE(::testing::Message() << "corner v=" << env.voltage << " t="
                                          << env.temperature << " threads " << threads
                                          << " chunk " << chunk);
        Rng rng(2024);
        sim::ChipTester tester(env, 250, rng.fork());
        const std::uint64_t before = measurements.total();
        sim::ChipScanStream stream = tester.stream_individual(pop.chip(0), total, chunk);
        expect_stream_equals(collect(stream, 3), want.scan, 3);
        EXPECT_EQ(measurements.total() - before, walk_count);
      }
    }
  }
}

TEST(ScanStream, ResetReplaysBitIdentically) {
  sim::ChipPopulation pop(small_lot());
  Rng rng(5);
  sim::ChipTester tester(sim::Environment::nominal(), 400, rng.fork());
  sim::ChipScanStream stream = tester.stream_individual(pop.chip(0), 90, 32);
  const CollectedScan first = collect(stream, 3);
  stream.reset();
  EXPECT_EQ(stream.position(), 0u);
  const CollectedScan replay = collect(stream, 3);
  EXPECT_EQ(first.chunks, replay.chunks);
  EXPECT_EQ(first.soft, replay.soft);
  EXPECT_EQ(first.stable, replay.stable);
}

TEST(ScanStream, ThreadCountNeverChangesTheBits) {
  ThreadGuard guard;
  sim::ChipPopulation pop(small_lot());
  CollectedScan reference;
  bool have_reference = false;
  for (std::uint64_t threads : {1u, 2u, 8u}) {
    ThreadPool::set_global_threads(threads);
    Rng rng(123);
    sim::ChipTester tester(sim::Environment::nominal(), 300, rng.fork());
    sim::ChipScanStream stream = tester.stream_individual(pop.chip(0), 130, 33);
    const CollectedScan got = collect(stream, 3);
    if (!have_reference) {
      reference = got;
      have_reference = true;
      continue;
    }
    EXPECT_EQ(got.soft, reference.soft) << threads << " threads";
    EXPECT_EQ(got.stable, reference.stable) << threads << " threads";
  }
}

TEST(ScanStream, RejectsZeroChunk) {
  sim::ChipPopulation pop(small_lot());
  Rng rng(1);
  sim::ChipTester tester(sim::Environment::nominal(), 100, rng.fork());
  EXPECT_THROW(tester.stream_individual(pop.chip(0), 10, 0), std::invalid_argument);
}

// --- StreamingNormalEquations vs the one-shot kernels --------------------

linalg::Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  linalg::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-1.0, 1.0);
  return m;
}

TEST(StreamingNormalEquations, MatchesOneShotGramAndCholeskyBitwise) {
  Rng rng(2718);
  const std::size_t n = 97, d = 9, targets = 2;
  const linalg::Matrix x = random_matrix(n, d, rng);
  std::vector<std::vector<double>> ys(targets);
  for (auto& y : ys)
    for (std::size_t r = 0; r < n; ++r) y.push_back(rng.uniform(-1.0, 1.0));

  // Feed ragged chunks (sizes 1, 2, 3, ... wrapping) to stress the
  // any-partition contract.
  ml::StreamingNormalEquations acc(d, targets);
  std::size_t pos = 0, step = 1;
  while (pos < n) {
    const std::size_t m = std::min(step, n - pos);
    linalg::Matrix phi(m, d);
    std::vector<std::vector<double>> chunk_y(targets);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < d; ++c) phi(r, c) = x(pos + r, c);
      for (std::size_t t = 0; t < targets; ++t) chunk_y[t].push_back(ys[t][pos + r]);
    }
    acc.accumulate(phi, chunk_y);
    pos += m;
    step = step % 5 + 1;
  }
  ASSERT_EQ(acc.rows(), n);

  const double ridge = 1e-8;
  const linalg::Matrix w = acc.solve(ridge);
  ASSERT_EQ(w.rows(), targets);
  ASSERT_EQ(w.cols(), d);

  // One-shot reference: the exact kernel sequence solve_least_squares'
  // normal-equations route runs on a materialized X.
  linalg::Matrix g = linalg::gram(x);
  for (std::size_t i = 0; i < d; ++i) g(i, i) += ridge;
  linalg::Cholesky chol(g);
  for (std::size_t t = 0; t < targets; ++t) {
    const linalg::Vector rhs =
        linalg::matvec_transposed(x, linalg::Vector(ys[t]));
    const linalg::Vector ref = chol.solve(rhs);
    for (std::size_t c = 0; c < d; ++c)
      EXPECT_EQ(w(t, c), ref[c]) << "target " << t << " coefficient " << c;
    double sum = 0.0;
    for (double v : ys[t]) sum += v;
    EXPECT_EQ(acc.target_mean(t), sum / static_cast<double>(n));
  }
}

TEST(StreamingNormalEquations, RejectsUnderdeterminedAndShapeMismatch) {
  ml::StreamingNormalEquations acc(4, 1);
  linalg::Matrix phi(2, 4);
  std::vector<std::vector<double>> y{{1.0, 0.0}};
  acc.accumulate(phi, y);
  EXPECT_THROW(acc.solve(0.0), std::invalid_argument);  // 2 rows < 4 features
  linalg::Matrix bad(2, 3);
  EXPECT_THROW(acc.accumulate(bad, y), std::invalid_argument);
  std::vector<std::vector<double>> short_y{{1.0}};
  EXPECT_THROW(acc.accumulate(phi, short_y), std::invalid_argument);
}

// --- End-to-end: streaming enroll vs the whole-scan reference --------------

void expect_models_identical(const puf::ServerModel& a, const puf::ServerModel& b) {
  ASSERT_EQ(a.puf_count(), b.puf_count());
  for (std::size_t p = 0; p < a.puf_count(); ++p) {
    EXPECT_EQ(a.puf(p).model.weights().raw(), b.puf(p).model.weights().raw())
        << "PUF " << p;
    EXPECT_EQ(a.puf(p).thresholds.thr0, b.puf(p).thresholds.thr0) << "PUF " << p;
    EXPECT_EQ(a.puf(p).thresholds.thr1, b.puf(p).thresholds.thr1) << "PUF " << p;
    EXPECT_EQ(a.puf(p).train_r_squared, b.puf(p).train_r_squared) << "PUF " << p;
  }
}

TEST(StreamingEnrollment, BitIdenticalToMaterializedAcrossChunksAndThreads) {
  ThreadGuard guard;
  sim::ChipPopulation pop(small_lot());

  puf::EnrollmentConfig cfg;
  cfg.training_challenges = 400;
  cfg.trials = 200;

  // The whole-scan reference, computed once on one thread.
  ThreadPool::set_global_threads(1);
  Rng ref_rng(31415);
  const puf::ServerModel reference =
      puf::enroll_reference(puf::Enroller(cfg), pop.chip(0), ref_rng);

  for (std::size_t chunk : {std::size_t{1}, std::size_t{64}, std::size_t{4096}}) {
    for (std::uint64_t threads : {1u, 2u, 8u}) {
      ThreadPool::set_global_threads(threads);
      puf::EnrollmentConfig scfg = cfg;
      scfg.chunk_challenges = chunk;
      Rng rng(31415);
      const puf::ServerModel streamed = puf::Enroller(scfg).enroll(pop.chip(0), rng);
      SCOPED_TRACE(::testing::Message() << "chunk " << chunk << ", threads " << threads);
      expect_models_identical(streamed, reference);
      // Both paths must consume the caller's generator identically.
      Rng expected(31415);
      expected.fork();
      EXPECT_EQ(rng.next_u64(), expected.next_u64());
    }
  }
}

TEST(StreamingEnrollment, FailsOnDeployedChipLikeMaterialized) {
  sim::PopulationConfig pcfg = small_lot();
  pcfg.seed = 31337;
  sim::ChipPopulation pop(pcfg);
  pop.chip(0).blow_fuses();
  puf::EnrollmentConfig cfg;
  cfg.training_challenges = 10;
  cfg.trials = 100;
  Rng rng(1);
  EXPECT_THROW(puf::Enroller(cfg).enroll(pop.chip(0), rng), AccessError);
}

// --- GEMM-backed logistic objective vs a scalar replica -------------------

// The historical scalar objective, reproduced with plain loops on the same
// fixed 512-row shard grid the GEMM path uses: per-row ascending-index dot,
// softplus loss and error accumulated per shard, shard partials combined in
// ascending shard order, gradient shard partials likewise. Any bit of drift
// between this and LogisticRegression::objective means the GEMM rewrite
// changed the math.
double scalar_objective(const ml::Dataset& data, double l2, const linalg::Vector& w,
                        linalg::Vector& grad) {
  constexpr std::size_t kShard = 512;
  const std::size_t n = data.size();
  const std::size_t d = data.features();
  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> err(n);
  double total_loss = 0.0;
  for (std::size_t begin = 0; begin < n; begin += kShard) {
    const std::size_t end = std::min(begin + kShard, n);
    double shard = 0.0;
    for (std::size_t r = begin; r < end; ++r) {
      double z = 0.0;
      for (std::size_t c = 0; c < d; ++c) z += data.x(r, c) * w[c];
      const double t = data.y[r] >= 0.5 ? 1.0 : 0.0;
      shard += t > 0.5 ? softplus(-z) : softplus(z);
      err[r] = (sigmoid(z) - t) * inv_n;
    }
    total_loss += shard;
  }
  grad = linalg::Vector(d);
  for (std::size_t begin = 0; begin < n; begin += kShard) {
    const std::size_t end = std::min(begin + kShard, n);
    std::vector<double> shard(d, 0.0);
    for (std::size_t r = begin; r < end; ++r) {
      if (err[r] == 0.0) continue;  // matmul_tn skips exact-zero terms
      for (std::size_t c = 0; c < d; ++c) shard[c] += err[r] * data.x(r, c);
    }
    for (std::size_t c = 0; c < d; ++c) grad[c] += shard[c];
  }
  double loss = total_loss * inv_n;
  for (std::size_t c = 0; c < d; ++c) {
    loss += 0.5 * l2 * w[c] * w[c];
    grad[c] += l2 * w[c];
  }
  return loss;
}

ml::Dataset lr_golden_dataset(std::size_t n, std::size_t d, Rng& rng) {
  ml::Dataset data;
  data.reserve(n, d);
  std::vector<double> row(d);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) row[c] = rng.uniform(-1.0, 1.0);
    // Noisy linear labels: separable enough to fit, noisy enough that the
    // sigmoid never saturates to an exact 0/1 during these tests.
    const double s = row[0] - 0.5 * row[1] + 0.25 * rng.uniform(-1.0, 1.0);
    data.add(row, s > 0.0 ? 1.0 : 0.0);
  }
  return data;
}

TEST(LogisticGemmGolden, ObjectiveAndGradientMatchScalarReplicaBitwise) {
  Rng rng(161803);
  // > 512 rows so the shard grid has interior boundaries AND a ragged tail.
  const ml::Dataset data = lr_golden_dataset(1300, 7, rng);
  ml::LogisticRegressionOptions opts;
  opts.l2 = 1e-4;
  const ml::LogisticRegression lr(opts);
  for (int trial = 0; trial < 5; ++trial) {
    linalg::Vector w(7);
    for (std::size_t c = 0; c < 7; ++c) w[c] = rng.uniform(-2.0, 2.0);
    linalg::Vector grad_gemm, grad_scalar;
    const double loss_gemm = lr.objective(data, w, grad_gemm);
    const double loss_scalar = scalar_objective(data, opts.l2, w, grad_scalar);
    EXPECT_EQ(loss_gemm, loss_scalar) << "trial " << trial;
    ASSERT_EQ(grad_gemm.size(), grad_scalar.size());
    for (std::size_t c = 0; c < 7; ++c)
      EXPECT_EQ(grad_gemm[c], grad_scalar[c]) << "trial " << trial << " coeff " << c;
  }
}

TEST(LogisticGemmGolden, FitIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  Rng rng(271828);
  const ml::Dataset data = lr_golden_dataset(1100, 6, rng);
  std::vector<double> reference;
  for (std::uint64_t threads : {1u, 2u, 8u}) {
    ThreadPool::set_global_threads(threads);
    ml::LogisticRegression lr;
    lr.fit(data);
    if (reference.empty()) {
      reference = lr.weights().raw();
      continue;
    }
    EXPECT_EQ(lr.weights().raw(), reference) << threads << " threads";
  }
}

}  // namespace
}  // namespace xpuf
