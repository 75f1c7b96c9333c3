// Golden equivalence tests for the batched linear-view evaluation core
// (sim/linear.hpp): FeatureBlock rows must equal the transform's feature
// vectors, the full-batch GEMM products must be bit-identical to the tile
// kernels and to scalar linear-view evaluation across every paper corner,
// aged devices, and 1/2/8 threads; the packed sign-flip screening kernel
// must equal feature_fill + the ascending dot bit for bit — and the
// ChipTester scan kernel and the selector must reproduce their per-cell
// references (oracles/scan_reference.hpp, a serial walk) byte for byte.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "oracles/scan_reference.hpp"
#include "puf/enrollment.hpp"
#include "puf/screening.hpp"
#include "puf/selection.hpp"
#include "puf/stability.hpp"
#include "puf/transform.hpp"
#include "sim/linear.hpp"
#include "sim/population.hpp"
#include "sim/tester.hpp"

namespace xpuf {
namespace {

sim::ChipPopulation test_population(std::size_t n_pufs, std::size_t stages = 32) {
  sim::PopulationConfig cfg;
  cfg.n_chips = 1;
  cfg.n_pufs_per_chip = n_pufs;
  cfg.device.stages = stages;
  cfg.seed = 2017;
  return sim::ChipPopulation(cfg);
}

std::vector<sim::Challenge> fixed_challenges(std::size_t stages, std::size_t count,
                                             std::uint64_t seed = 4242) {
  Rng rng(seed);
  return sim::random_challenges(stages, count, rng);
}

/// Runs `f` at 1, 2, and 8 global threads and checks the results agree.
template <typename F>
void expect_identical_across_thread_counts(const F& f) {
  ThreadPool::set_global_threads(1);
  const auto reference = f();
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool::set_global_threads(threads);
    EXPECT_EQ(f(), reference) << "result changed at " << threads << " threads";
  }
  ThreadPool::set_global_threads(8);
}

TEST(FeatureBlock, RowsMatchTransformFeatureVectors) {
  const auto challenges = fixed_challenges(24, 40);
  const sim::FeatureBlock block(challenges);
  ASSERT_EQ(block.size(), 40u);
  EXPECT_EQ(block.stages(), 24u);
  EXPECT_EQ(block.features(), 25u);
  EXPECT_EQ(block.phi().rows(), 40u);
  EXPECT_EQ(block.phi().cols(), 25u);
  for (std::size_t i = 0; i < block.size(); ++i) {
    const linalg::Vector ref = puf::feature_vector(challenges[i]);
    ASSERT_EQ(ref.size(), block.features());
    for (std::size_t j = 0; j < ref.size(); ++j)
      EXPECT_EQ(block.row(i)[j], ref[j]) << "row " << i << " col " << j;
    EXPECT_EQ(block.challenge(i), challenges[i]);
  }
}

TEST(FeatureBlock, EmptyBlockIsLegal) {
  const sim::FeatureBlock block;
  EXPECT_TRUE(block.empty());
  EXPECT_EQ(block.size(), 0u);
  EXPECT_EQ(block.features(), 0u);
  const sim::FeatureBlock block2{std::vector<sim::Challenge>{}};
  EXPECT_TRUE(block2.empty());
}

TEST(DeviceLinearView, DelayIsTheAscendingDotOfReducedWeights) {
  sim::ChipPopulation pop = test_population(2);
  const sim::ArbiterPufDevice& dev = pop.chip(0).device_for_analysis(0);
  for (const auto& env : sim::paper_corner_grid()) {
    const sim::DeviceLinearView view = dev.linear_view(env);
    const linalg::Vector w = dev.reduced_weights(env);
    ASSERT_EQ(view.features(), w.size());
    EXPECT_EQ(view.noise_sigma, dev.noise_sigma(env));
    const sim::FeatureBlock block(fixed_challenges(dev.stages(), 30));
    for (std::size_t i = 0; i < block.size(); ++i) {
      const double* phi = block.row(i);
      // The reference accumulation order: ascending index.
      double ref = 0.0;
      for (std::size_t j = 0; j < w.size(); ++j) ref += w[j] * phi[j];
      const std::span<const double> row{phi, view.features()};
      EXPECT_EQ(view.delay(row), ref);
      EXPECT_EQ(view.one_probability(row),
                normal_cdf(view.delay(row) / view.noise_sigma));
      // And the recursive stage walk agrees to reduction rounding.
      EXPECT_NEAR(view.delay(row), dev.delay_difference(block.challenge(i), env),
                  1e-9);
    }
  }
}

TEST(DeviceLinearView, BatchEntryPointsMatchScalarBitwise) {
  sim::ChipPopulation pop = test_population(1);
  sim::XorPufChip& chip = pop.chip(0);
  const sim::FeatureBlock block(fixed_challenges(chip.stages(), 129));
  for (const bool aged : {false, true}) {
    if (aged) chip.age(5'000.0);
    const sim::ArbiterPufDevice& dev = chip.device_for_analysis(0);
    for (const auto& env : sim::paper_corner_grid()) {
      const sim::DeviceLinearView view = dev.linear_view(env);
      const linalg::Vector deltas = dev.delay_differences(block, env);
      const linalg::Vector probs = dev.one_probabilities(block, env);
      ASSERT_EQ(deltas.size(), block.size());
      std::vector<double> tile(block.size());
      view.delay_differences_into(block, 0, block.size(), tile.data());
      for (std::size_t i = 0; i < block.size(); ++i) {
        const std::span<const double> row{block.row(i), view.features()};
        EXPECT_EQ(deltas[i], view.delay(row));
        EXPECT_EQ(deltas[i], tile[i]);
        EXPECT_EQ(probs[i], view.one_probability(row));
      }
      // Uneven tile boundaries must not change a single bit.
      std::vector<double> part(57);
      view.one_probabilities_into(block, 31, 88, part.data());
      for (std::size_t i = 0; i < part.size(); ++i) EXPECT_EQ(part[i], probs[31 + i]);
    }
  }
}

TEST(ChipLinearView, GemmTilesAndScalarAgreeAcrossCornersAgingThreads) {
  sim::ChipPopulation pop = test_population(5);
  sim::XorPufChip& chip = pop.chip(0);
  const sim::FeatureBlock block(fixed_challenges(chip.stages(), 200));
  for (const bool aged : {false, true}) {
    if (aged) chip.age(2'000.0);
    for (const auto& env : sim::paper_corner_grid()) {
      const sim::ChipLinearView view = chip.linear_view(env);
      ASSERT_EQ(view.puf_count(), 5u);
      // The full-batch GEMM runs under parallel_for: sweep thread counts.
      expect_identical_across_thread_counts([&] {
        return std::make_pair(view.delay_differences(block).raw(),
                              view.one_probabilities(block).raw());
      });
      const linalg::Matrix deltas = view.delay_differences(block);
      const linalg::Matrix probs = view.one_probabilities(block);
      // Tile kernels over an uneven row range, against the full product.
      std::vector<double> tile(77 * view.puf_count());
      view.delay_differences_into(block, 3, 80, tile.data());
      std::vector<double> ptile(77 * view.puf_count());
      view.one_probabilities_into(block, 3, 80, ptile.data());
      for (std::size_t c = 3; c < 80; ++c)
        for (std::size_t p = 0; p < view.puf_count(); ++p) {
          EXPECT_EQ(tile[(c - 3) * view.puf_count() + p], deltas(c, p));
          EXPECT_EQ(ptile[(c - 3) * view.puf_count() + p], probs(c, p));
        }
      // And each cell against the per-device scalar linear view.
      for (std::size_t p = 0; p < view.puf_count(); ++p) {
        const sim::DeviceLinearView dview =
            chip.device_for_analysis(p).linear_view(env);
        for (std::size_t c = 0; c < block.size(); c += 17) {
          const std::span<const double> row{block.row(c), dview.features()};
          EXPECT_EQ(deltas(c, p), dview.delay(row));
          EXPECT_EQ(probs(c, p), dview.one_probability(row));
        }
      }
    }
  }
}

/// One scan's measurements as a comparable value type.
struct ScanOutputs {
  std::vector<std::vector<double>> soft;
  std::vector<std::vector<bool>> stable;

  bool operator==(const ScanOutputs&) const = default;
};

/// Measures 260 challenges x 4 PUFs at `env`, through the tester's one scan
/// kernel or, with `reference`, through the per-cell stage walk — both fed
/// the same generator, so they must agree byte for byte.
ScanOutputs run_scan(bool reference, const sim::Environment& env) {
  sim::ChipPopulation pop = test_population(4);
  Rng rng(9001);
  sim::ChipSoftScan scan;
  if (reference) {
    Rng tester_rng = rng.fork();
    const auto challenges = sim::random_challenges(pop.chip(0).stages(), 260, tester_rng);
    scan = sim::scan_reference(pop.chip(0), challenges, env, 150, tester_rng);
  } else {
    sim::ChipTester tester(env, 150, rng.fork());
    scan = tester.scan_individual(pop.chip(0), tester.random_challenges(pop.chip(0), 260));
  }
  return {scan.soft, scan.stable};
}

// The packed sign-flip kernel against feature_fill + the ascending dot, bit
// for bit: sub-word, one-word and multi-word stage counts (parity carries
// across words), candidate counts that leave every vector-group tail, and
// stage words with garbage above the last stage (it must be ignored).
TEST(PackedKernel, SignFlipDotsAreBitIdenticalToTheFeatureDot) {
  Rng rng(606);
  for (const std::size_t stages : {1ul, 7ul, 63ul, 64ul, 65ul, 127ul, 128ul, 130ul}) {
    const std::size_t nw = sim::packed_words(stages);
    std::vector<double> w(stages + 1);
    for (double& x : w) x = rng.normal();
    w[0] = -0.0;
    w[stages / 2] = 0.0;
    for (const std::size_t n : {0ul, 1ul, 3ul, 4ul, 5ul, 15ul, 16ul, 17ul, 37ul}) {
      SCOPED_TRACE("stages=" + std::to_string(stages) + " n=" + std::to_string(n));
      std::vector<std::uint64_t> words(n * nw);
      for (auto& x : words) x = rng.next_u64();
      const std::size_t stride = n + 3;
      std::vector<std::uint64_t> signs(nw * stride);
      sim::parity_signs(words.data(), stages, n, signs.data(), stride);
      std::vector<double> out(n);
      sim::sign_flip_dots(signs.data(), stride, n, w, out.data());
      std::vector<double> phi(stages + 1);
      for (std::size_t j = 0; j < n; ++j) {
        sim::Challenge c;
        sim::challenge_from_words(words.data() + j * nw, stages, c);
        ASSERT_EQ(c.size(), stages);
        sim::feature_fill(c, phi.data());
        double acc = 0.0;
        for (std::size_t k = 0; k <= stages; ++k) acc += phi[k] * w[k];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out[j]), std::bit_cast<std::uint64_t>(acc))
            << "candidate " << j << ": " << out[j] << " vs " << acc;
        // Sign bits at or past `stages` are cleared.
        if (stages % 64 != 0) {
          EXPECT_EQ(signs[(nw - 1) * stride + j] >> (stages % 64), 0u);
        }
      }
    }
  }
}

// The compaction step against a classify-based scalar loop: random raws
// mixed with NaN, +-0, +-inf and values exactly at thr0, thr1 and 0.5;
// infinite, crossed and touching thresholds; counts that leave every tail
// of the four-wide path; one to three sign planes with garbage past n.
TEST(PackedKernel, CompactStableMatchesTheClassifyLoop) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<puf::ThresholdPair> pairs = {
      {0.3, 0.7}, {0.0, 1.0}, {0.5, 0.5}, {-kInf, 0.6}, {0.4, kInf}, {-kInf, kInf}, {kInf, -kInf}};
  Rng rng(707);
  for (const puf::ThresholdPair thr : pairs) {
    const double specials[] = {std::numeric_limits<double>::quiet_NaN(), 0.0, -0.0, kInf, -kInf,
                               thr.thr0, thr.thr1, 0.5};
    for (const std::size_t nw : {1ul, 2ul, 3ul}) {
      for (std::size_t n = 0; n < 20; ++n) {
        SCOPED_TRACE("thr=(" + std::to_string(thr.thr0) + ", " + std::to_string(thr.thr1) +
                     ") nw=" + std::to_string(nw) + " n=" + std::to_string(n));
        for (int trial = 0; trial < 8; ++trial) {
          const std::size_t stride = n + 3;
          std::vector<double> raw(n);
          for (double& r : raw)
            r = rng.bernoulli(0.4) ? specials[rng.uniform_below(std::size(specials))]
                                   : rng.uniform(-0.5, 1.5);
          std::vector<std::uint64_t> signs(nw * stride);
          for (auto& x : signs) x = rng.next_u64();
          std::vector<std::uint32_t> rows(n);
          for (std::size_t j = 0; j < n; ++j)
            rows[j] = static_cast<std::uint32_t>(j) | (rng.bernoulli() ? sim::kRowBitFlag : 0u);
          // Oracle: the scalar walk over classify.
          std::vector<std::uint32_t> want_rows;
          std::vector<std::vector<std::uint64_t>> want_signs(nw);
          for (std::size_t j = 0; j < n; ++j) {
            if (thr.classify(raw[j]) == puf::StableClass::kUnstable) continue;
            want_rows.push_back(rows[j] ^ (raw[j] > 0.5 ? sim::kRowBitFlag : 0u));
            for (std::size_t w = 0; w < nw; ++w) want_signs[w].push_back(signs[w * stride + j]);
          }
          const std::size_t kept = sim::compact_stable(raw.data(), n, thr.thr0, thr.thr1,
                                                       signs.data(), stride, nw, rows.data());
          ASSERT_EQ(kept, want_rows.size());
          EXPECT_EQ(std::vector<std::uint32_t>(rows.begin(), rows.begin() + kept), want_rows);
          for (std::size_t w = 0; w < nw; ++w) {
            const auto plane = signs.begin() + static_cast<std::ptrdiff_t>(w * stride);
            EXPECT_EQ(std::vector<std::uint64_t>(plane, plane + kept), want_signs[w])
                << "plane " << w;
          }
        }
      }
    }
  }
}

TEST(PackedKernel, UnpackedWordsAreTheCandidateGeneratorsChallenge) {
  for (const std::size_t stages : {1ul, 32ul, 64ul, 65ul, 128ul}) {
    Rng a(stages);
    Rng b(stages);
    sim::Challenge drawn;
    puf::ChallengeScreener::candidate_into(drawn, stages, a);
    std::vector<std::uint64_t> words(sim::packed_words(stages));
    for (auto& x : words) x = b.next_u64();
    sim::Challenge unpacked;
    sim::challenge_from_words(words.data(), stages, unpacked);
    EXPECT_EQ(drawn, unpacked) << "stages " << stages;
  }
}

TEST(ScanModes, BatchedMatchesScalarByteForByteAcrossCornersAndThreads) {
  for (const auto& env : sim::paper_corner_grid()) {
    ThreadPool::set_global_threads(1);
    const ScanOutputs walk = run_scan(/*reference=*/true, env);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool::set_global_threads(threads);
      EXPECT_EQ(run_scan(/*reference=*/false, env), walk)
          << "corner v=" << env.voltage << " t=" << env.temperature
          << " threads=" << threads;
    }
  }
  ThreadPool::set_global_threads(8);
}

TEST(ScanModes, StorageReusingScanEqualsFreshScan) {
  sim::ChipPopulation pop = test_population(4);
  // One reused result object across corners AND a shape change (a narrower
  // follow-up block): every write must leave it equal to a fresh scan.
  sim::ChipSoftScan reused;
  for (const auto& env : sim::paper_corner_grid()) {
    for (const std::size_t n_ch : {97ul, 33ul}) {
      Rng challenge_rng(77);
      const sim::FeatureBlock block(
          sim::random_challenges(pop.chip(0).stages(), n_ch, challenge_rng));
      Rng rng(9001);
      sim::ChipTester tester(env, 150, rng.fork());
      Rng fresh_rng(9001);
      sim::ChipTester fresh_tester(env, 150, fresh_rng.fork());
      const sim::ChipSoftScan fresh = fresh_tester.scan_individual(pop.chip(0), block);
      tester.scan_individual_into(pop.chip(0), block, reused);
      EXPECT_EQ(reused.challenges, fresh.challenges);
      EXPECT_EQ(reused.soft, fresh.soft);
      EXPECT_EQ(reused.stable, fresh.stable);
      EXPECT_EQ(reused.trials, fresh.trials);
    }
  }
}

TEST(ScanModes, MeasurementCounterTotalsAgree) {
  static Counter& measurements =
      MetricsRegistry::global().counter("tester.measurements");
  const auto count_scan = [](bool reference) {
    const std::uint64_t before = measurements.total();
    run_scan(reference, sim::Environment::nominal());
    return measurements.total() - before;
  };
  const std::uint64_t walk = count_scan(true);
  const std::uint64_t kernel = count_scan(false);
  EXPECT_EQ(walk, kernel);
  EXPECT_EQ(walk, 260u * 4u);  // one per (challenge, PUF) cell
}

/// Enrolls a small server model for the selector tests.
puf::ServerModel small_server_model(sim::XorPufChip& chip) {
  puf::EnrollmentConfig cfg;
  cfg.training_challenges = 400;
  cfg.trials = 200;
  puf::Enroller enroller(cfg);
  Rng rng(33);
  return enroller.enroll(chip, rng);
}

TEST(ModelSelection, BlockSelectMatchesSerialReference) {
  sim::ChipPopulation pop = test_population(3);
  const puf::ServerModel model = small_server_model(pop.chip(0));
  const std::size_t n_pufs = 3;
  const puf::ModelBasedSelector selector(model, n_pufs);

  for (const std::size_t max_attempts : {100'000ul, 700ul, 3ul}) {
    Rng batch_rng(2024);
    const puf::SelectionResult batched = selector.select(64, batch_rng, max_attempts);

    // Serial reference: one candidate at a time, scalar predictions. The
    // candidate stream is identical because candidate i is a pure function
    // of (family, i) — the selector consumes exactly one fork_base() draw
    // and walks the same index-keyed streams this loop does.
    Rng serial_rng(2024);
    const StreamFamily family(serial_rng.fork_base());
    puf::SelectionResult serial;
    std::vector<puf::ThresholdPair> thresholds;
    for (std::size_t p = 0; p < n_pufs; ++p)
      thresholds.push_back(model.adjusted_thresholds(p));
    while (serial.challenges.size() < 64 && serial.candidates_tried < max_attempts) {
      Rng candidate_rng = family.stream(serial.candidates_tried);
      sim::Challenge c;
      puf::ChallengeScreener::candidate_into(c, model.stages(), candidate_rng);
      ++serial.candidates_tried;
      bool stable = true;
      bool bit = false;
      for (std::size_t p = 0; p < n_pufs; ++p) {
        const double raw = model.puf(p).model.predict_raw(c);
        if (thresholds[p].classify(raw) == puf::StableClass::kUnstable) stable = false;
        bit ^= raw > 0.5;
      }
      if (!stable) continue;
      serial.challenges.push_back(std::move(c));
      serial.expected_responses.push_back(bit);
    }
    serial.filled = serial.challenges.size() >= 64;

    EXPECT_EQ(batched.challenges, serial.challenges) << "cap " << max_attempts;
    EXPECT_EQ(batched.expected_responses, serial.expected_responses);
    EXPECT_EQ(batched.candidates_tried, serial.candidates_tried);
    EXPECT_EQ(batched.filled, serial.filled);
  }
}

TEST(ModelSelection, FilterMatchesPerChallengeClassification) {
  sim::ChipPopulation pop = test_population(2);
  const puf::ServerModel model = small_server_model(pop.chip(0));
  const puf::ModelBasedSelector selector(model, 2);
  const auto candidates = fixed_challenges(model.stages(), 300);
  const puf::SelectionResult filtered = selector.filter(candidates);
  EXPECT_EQ(filtered.candidates_tried, 300u);
  EXPECT_TRUE(filtered.filled);
  std::size_t kept = 0;
  for (const auto& c : candidates) {
    if (!model.all_stable(c, 2)) continue;
    ASSERT_LT(kept, filtered.challenges.size());
    EXPECT_EQ(filtered.challenges[kept], c);
    EXPECT_EQ(static_cast<bool>(filtered.expected_responses[kept]),
              model.predict_xor(c, 2));
    ++kept;
  }
  EXPECT_EQ(kept, filtered.challenges.size());
}

TEST(ServerModelBatch, StableAndXorBatchesMatchScalarPredicates) {
  sim::ChipPopulation pop = test_population(3);
  const puf::ServerModel model = small_server_model(pop.chip(0));
  const sim::FeatureBlock block(fixed_challenges(model.stages(), 220));
  const auto stable = model.all_stable_batch(block, 3);
  const auto xorr = model.predict_xor_batch(block, 3);
  const linalg::Matrix raw = model.predict_raw_batch(block, 3);
  ASSERT_EQ(stable.size(), block.size());
  ASSERT_EQ(raw.rows(), block.size());
  ASSERT_EQ(raw.cols(), 3u);
  for (std::size_t i = 0; i < block.size(); ++i) {
    EXPECT_EQ(stable[i] != 0, model.all_stable(block.challenge(i), 3));
    EXPECT_EQ(xorr[i] != 0, model.predict_xor(block.challenge(i), 3));
    for (std::size_t p = 0; p < 3; ++p)
      EXPECT_EQ(raw(i, p), model.puf(p).model.predict_raw(block.challenge(i)));
  }
}

TEST(TapGating, LinearViewsRespectFusesButXorBatchesSurvive) {
  sim::ChipPopulation pop = test_population(3);
  sim::XorPufChip& chip = pop.chip(0);
  const sim::Environment env = sim::Environment::nominal();
  const sim::FeatureBlock block(fixed_challenges(chip.stages(), 50));

  // Pre-deployment: everything works, down to a one-PUF view.
  EXPECT_NO_THROW(chip.linear_view(env));
  EXPECT_NO_THROW(chip.linear_view(env, 1));
  EXPECT_NO_THROW(chip.one_probabilities(block, env));

  chip.blow_fuses();
  EXPECT_THROW(chip.linear_view(env), AccessError);
  EXPECT_THROW(chip.linear_view(env, 1), AccessError);
  EXPECT_THROW(chip.one_probabilities(block, env), AccessError);

  // The per-tap scan throws through the kernel, the stream and the stage
  // walk alike; the XOR pin remains usable.
  Rng rng(5);
  sim::ChipTester tester(env, 50, rng.fork());
  EXPECT_THROW(tester.scan_individual(chip, block), AccessError);
  EXPECT_THROW(tester.stream_individual(chip, 10, 4), AccessError);
  Rng walk_rng(6);
  EXPECT_THROW(sim::scan_reference(chip, block, env, 50, walk_rng), AccessError);
  Rng xor_rng(7);
  for (std::size_t c = 0; c < block.size(); ++c)
    EXPECT_NO_THROW(chip.xor_response(block.challenge(c), env, xor_rng));
  EXPECT_NO_THROW(chip.measure_xor_soft_response(block.challenge(0), env, 50, xor_rng));
}

TEST(NormalCdfBatchIntegration, ChipProbabilitiesUseTheExactScalarCdf) {
  // End-to-end pin: the chip batch path must produce exactly
  // normal_cdf(delta / sigma) per cell — the division (never a reciprocal
  // multiply) and the shared erfc expression are the load-bearing details.
  sim::ChipPopulation pop = test_population(2);
  const sim::XorPufChip& chip = pop.chip(0);
  const sim::Environment env{0.8, 60.0};
  const sim::FeatureBlock block(fixed_challenges(chip.stages(), 64));
  const sim::ChipLinearView view = chip.linear_view(env);
  const linalg::Matrix deltas = view.delay_differences(block);
  const linalg::Matrix probs = view.one_probabilities(block);
  for (std::size_t c = 0; c < block.size(); ++c)
    for (std::size_t p = 0; p < view.puf_count(); ++p)
      EXPECT_EQ(probs(c, p), normal_cdf(deltas(c, p) / view.noise_sigma(p)));
}

}  // namespace
}  // namespace xpuf
