// Tests for the authentication hot path: the packed screening kernel's
// bit-exactness contract (== the serial reference walk at every stage
// count, XOR width, sink verdict and resume point, plus a golden sequence),
// per-device issuance pools (drain, low-water refill, live fallback, crash
// re-drain, failed-issue ledger rollback), the POOL record's crash safety
// at every truncation point, and zero-copy mapped model serving.

// GCC 12's value-range propagation mis-models std::less<vector<uint8_t>> when
// set::insert inlines memcmp in Release and reports an impossible bound
// (stringop-overread); the comparison is well-defined for any real vector.
// Before the includes because the late-IPA diagnostic anchors inside libstdc++.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wstringop-overread"
#endif

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "puf/database.hpp"
#include "puf/enrollment.hpp"
#include "puf/screening.hpp"
#include "puf/screening_reference.hpp"
#include "puf/store/record.hpp"
#include "puf/store/store.hpp"
#include "sim/linear.hpp"
#include "sim/population.hpp"

namespace xpuf::puf {
namespace {

namespace fs = std::filesystem;

std::uint64_t counter_or_zero(const MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// A realistically-enrolled 3-PUF model: genuine stable/unstable candidate
/// mix, deterministic across calls (fresh RNGs each time).
ServerModel enroll_model() {
  sim::PopulationConfig cfg;
  cfg.n_chips = 1;
  cfg.n_pufs_per_chip = 3;
  cfg.seed = 5150;
  sim::ChipPopulation pop(cfg);
  Rng rng(808);
  EnrollmentConfig ecfg;
  ecfg.training_challenges = 2'000;
  ecfg.trials = 2'000;
  ServerModel m = Enroller(ecfg).enroll(pop.chip(0), rng);
  m.set_betas(BetaFactors{0.85, 1.15});
  return m;
}

/// Deterministic hand-built model (test_store idiom) whose thresholds are
/// controllable — `unstable` makes every candidate classify kUnstable, so
/// screening can never accept.
ServerModel make_plain_model(std::uint64_t id, std::size_t stages, bool unstable = false) {
  std::vector<PufEnrollment> pufs;
  for (std::size_t p = 0; p < 3; ++p) {
    PufEnrollment e;
    linalg::Vector w(stages + 1);
    for (std::size_t i = 0; i <= stages; ++i)
      w[i] = 0.25 * static_cast<double>(i + p + 1) + 1e-9 * static_cast<double>(id);
    e.model = ArbiterPufModel(std::move(w));
    e.thresholds.thr0 = unstable ? -1e18 : 0.4 - 0.001 * static_cast<double>(p);
    e.thresholds.thr1 = unstable ? 1e18 : 0.6 + 0.001 * static_cast<double>(p);
    e.train_r_squared = 0.99;
    e.fit_time_ms = 1.0;
    pufs.push_back(std::move(e));
  }
  ServerModel m(static_cast<std::size_t>(id), std::move(pufs));
  m.set_betas(BetaFactors{0.85, 1.15});
  return m;
}

std::string unique_dir(const std::string& tag) {
  return (fs::temp_directory_path() / ("xpuf_screening_" + tag + "_" +
                                       std::to_string(::getpid())))
      .string();
}

struct Walk {
  std::vector<Challenge> challenges;
  std::vector<bool> bits;
  ChallengeScreener::Outcome out;
};

/// One screening walk through the packed kernel (reference = false) or the
/// serial reference walk, recording everything the sink sees. `keep` is
/// the sink's verdict for the i-th stable candidate (accept-all default).
Walk run_walk(const ModelView& view, std::size_t n_pufs, bool reference,
              std::uint64_t family_base, std::uint64_t first, std::size_t count,
              std::size_t max_attempts,
              const std::function<bool(std::size_t)>& keep = nullptr) {
  Walk w;
  std::size_t seen = 0;
  const ChallengeScreener::Sink sink = [&](const std::uint64_t* words, bool bit) {
    if (keep && !keep(seen++)) return false;
    sim::challenge_from_words(words, view.stages(), w.challenges.emplace_back());
    w.bits.push_back(bit);
    return true;
  };
  const StreamFamily family(family_base);
  if (reference) {
    w.out = screen_reference(view, n_pufs, family, first, count, max_attempts, sink);
  } else {
    ChallengeScreener screener(view, n_pufs);
    w.out = screener.screen(family, first, count, max_attempts, sink);
  }
  return w;
}

void expect_walks_identical(const Walk& a, const Walk& b) {
  EXPECT_EQ(a.challenges, b.challenges);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.out.tried, b.out.tried);
  EXPECT_EQ(a.out.stable, b.out.stable);
  EXPECT_EQ(a.out.accepted, b.out.accepted);
  EXPECT_EQ(a.out.filled, b.out.filled);
  EXPECT_EQ(a.out.next_index, b.out.next_index);
}

void expect_batches_identical(const ChallengeBatch& a, const ChallengeBatch& b) {
  EXPECT_EQ(a.challenges, b.challenges);
  EXPECT_EQ(a.expected, b.expected);
}

/// Owns the weight rows a from_parts ModelView points into.
struct HandModel {
  std::vector<std::vector<double>> weights;
  std::vector<ThresholdPair> thresholds;

  ModelView view() const {
    std::vector<const double*> rows;
    for (const auto& w : weights) rows.push_back(w.data());
    return ModelView::from_parts(0, static_cast<std::uint32_t>(weights.front().size() - 1),
                                 BetaFactors{1.0, 1.0}, std::move(rows), thresholds,
                                 nullptr);
  }
};

/// `width` PUFs of `stages` stages with Gaussian weights and an unstable
/// band of +-0.15 sigma of the raw prediction around a jittered center, so
/// each PUF rejects about one candidate in eight and the cascade rejects
/// at every depth while even 13 PUFs keep some.
HandModel random_model(std::size_t stages, std::size_t width, std::uint64_t seed) {
  HandModel m;
  Rng rng(seed);
  const double sigma = std::sqrt(static_cast<double>(stages + 1));
  for (std::size_t p = 0; p < width; ++p) {
    std::vector<double> w(stages + 1);
    for (double& x : w) x = rng.normal();
    m.weights.push_back(std::move(w));
    const double center = 0.1 * rng.normal();
    m.thresholds.push_back({center - 0.15 * sigma, center + 0.15 * sigma});
  }
  return m;
}

// --- packed kernel vs the reference walk -------------------------------------

TEST(ScreeningEquivalence, KernelMatchesReferenceAtEveryThreadCount) {
  const ServerModel model = enroll_model();
  const ModelView view = ModelView::of(model);
  const std::uint64_t base = 0xdecafbadULL;
  const Walk ref = run_walk(view, 3, /*reference=*/true, base, 0, 24, 1'000'000);
  ASSERT_TRUE(ref.out.filled);
  ASSERT_EQ(ref.out.accepted, 24u);
  // Rejection sampling really rejected something, or the model is degenerate
  // and the equivalence below is vacuous.
  ASSERT_GT(ref.out.tried, ref.out.accepted);
  // The kernel runs on the calling thread; the pool size must not matter.
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    ThreadPool::set_global_threads(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_walks_identical(ref, run_walk(view, 3, false, base, 0, 24, 1'000'000));
  }
  ThreadPool::set_global_threads(0);
}

TEST(ScreeningEquivalence, KernelMatchesReferenceAcrossStageCountsAndWidths) {
  // 1..128 stages cover sub-word, exactly-one-word and multi-word challenges
  // (the parity carries across words); widths up to 13 exceed the paper's.
  for (const std::size_t stages : {1ul, 8ul, 13ul, 32ul, 63ul, 64ul, 65ul, 128ul}) {
    for (const std::size_t width : {1ul, 3ul, 10ul, 13ul}) {
      const HandModel m = random_model(stages, width, 1000 * stages + width);
      const ModelView view = m.view();
      SCOPED_TRACE("stages=" + std::to_string(stages) + " width=" + std::to_string(width));
      // An odd attempt cap leaves a partial last block.
      const Walk ref = run_walk(view, width, true, stages, 0, 40, 20'001);
      if (stages >= 8) {
        // Both verdicts occur, or the comparison below is vacuous (one
        // stage has only two distinct predictions per PUF).
        ASSERT_GT(ref.out.tried, ref.out.stable);
        ASSERT_GT(ref.out.stable, 0u);
      }
      expect_walks_identical(ref, run_walk(view, width, false, stages, 0, 40, 20'001));
    }
  }
}

TEST(ScreeningEquivalence, ThresholdTiesAreUnstableInBothWalks) {
  // Weights 0.25 with bias 0.5 make every raw prediction an exact multiple
  // of 0.25 (0.5 + 0.25 * (plus signs - minus signs)), so many candidates
  // land exactly on thr0 = 0 or thr1 = 1; classify compares strictly and
  // must reject them in the kernel exactly as in the reference walk.
  constexpr std::size_t kStages = 8;
  HandModel m;
  m.weights.assign(2, std::vector<double>(kStages + 1, 0.25));
  m.weights[0][kStages] = 0.5;
  m.weights[1][kStages] = 0.75;
  // PUF 1 ties where PUF 0 is stable (two or six minus signs), so the
  // cascade really hands it tied candidates.
  m.thresholds = {{0.0, 1.0}, {-0.25, 1.75}};
  const ModelView view = m.view();
  const Walk ref = run_walk(view, 2, true, 4242, 0, 30, 10'000);
  expect_walks_identical(ref, run_walk(view, 2, false, 4242, 0, 30, 10'000));

  std::size_t ties = 0;
  std::vector<double> phi(kStages + 1);
  for (std::uint64_t j = 0; j < ref.out.tried; ++j) {
    Rng rng = StreamFamily(4242).stream(j);
    Challenge c;
    ChallengeScreener::candidate_into(c, kStages, rng);
    sim::feature_fill(c, phi.data());
    for (std::size_t p = 0; p < 2; ++p) {
      double raw = 0.0;
      for (std::size_t k = 0; k <= kStages; ++k) raw += phi[k] * m.weights[p][k];
      ties += raw == m.thresholds[p].thr0 || raw == m.thresholds[p].thr1;
    }
  }
  EXPECT_GT(ties, 10u) << "the walk never hit a threshold exactly";
  for (const Challenge& c : ref.challenges) {
    sim::feature_fill(c, phi.data());
    for (std::size_t p = 0; p < 2; ++p) {
      double raw = 0.0;
      for (std::size_t k = 0; k <= kStages; ++k) raw += phi[k] * m.weights[p][k];
      EXPECT_TRUE(raw < m.thresholds[p].thr0 || raw > m.thresholds[p].thr1)
          << "PUF " << p << " accepted a tie: raw " << raw;
    }
  }
}

TEST(ScreeningEquivalence, WalkResumesFromNextIndexWithoutSeams) {
  const ServerModel model = enroll_model();
  const ModelView view = ModelView::of(model);
  const std::uint64_t base = 77;
  const Walk whole = run_walk(view, 3, false, base, 0, 24, 1'000'000);
  Walk head = run_walk(view, 3, false, base, 0, 10, 1'000'000);
  const Walk tail = run_walk(view, 3, false, base, head.out.next_index, 14, 1'000'000);
  // The resumed walk is the reference's resumed walk too.
  expect_walks_identical(
      run_walk(view, 3, true, base, head.out.next_index, 14, 1'000'000), tail);
  head.challenges.insert(head.challenges.end(), tail.challenges.begin(),
                         tail.challenges.end());
  head.bits.insert(head.bits.end(), tail.bits.begin(), tail.bits.end());
  EXPECT_EQ(head.challenges, whole.challenges);
  EXPECT_EQ(head.bits, whole.bits);
  EXPECT_EQ(tail.out.next_index, whole.out.next_index);
  EXPECT_EQ(head.out.tried + tail.out.tried, whole.out.tried);
}

TEST(ScreeningEquivalence, SinkRejectionKeepsModesAligned) {
  const ServerModel model = enroll_model();
  const ModelView view = ModelView::of(model);
  // A sink that rejects every other stable candidate (the replay-ledger
  // shape) must leave kernel and reference walking the identical sequence.
  const auto every_other = [](std::size_t i) { return i % 2 == 0; };
  const Walk reference = run_walk(view, 3, true, 31337, 0, 12, 1'000'000, every_other);
  const Walk kernel = run_walk(view, 3, false, 31337, 0, 12, 1'000'000, every_other);
  expect_walks_identical(reference, kernel);
  EXPECT_EQ(reference.out.accepted, 12u);
  // accept/reject alternation ending on the 12th accept: 23 stable in total.
  EXPECT_EQ(reference.out.stable, 23u);
}

TEST(ScreeningEquivalence, ScreeningConsumesNothingFromTheCallerRng) {
  const ServerModel model = enroll_model();
  const ModelView view = ModelView::of(model);
  Rng used(42);
  Rng mirror(42);
  const StreamFamily family(used.fork_base());
  (void)mirror.fork_base();
  (void)run_walk(view, 3, false, family.base(), 0, 24, 1'000'000);
  // The walk seeded per-candidate streams from the family alone; the caller
  // RNG advanced exactly one fork_base() draw.
  EXPECT_EQ(used.next_u64(), mirror.next_u64());
}

TEST(ScreeningEquivalence, IssueLiveIsBitIdenticalAcrossScreeningModes) {
  // issue_live (packed kernel) against the reference walk driven the way
  // fill_live drives it: one fork_base() draw, a replay-ledger sink.
  ServerDatabase db(DatabaseConfig{.n_pufs = 3, .policy = {.challenge_count = 16}, .pool = {}});
  const ServerModel model = enroll_model();
  db.register_device(enroll_model());
  const ModelView view = ModelView::of(model);
  std::set<std::string> ledger;  // the former ledger form, as the oracle
  for (int round = 0; round < 4; ++round) {
    Rng kernel_rng(900 + round);
    Rng reference_rng(900 + round);
    const ChallengeBatch a = db.issue_live(0, kernel_rng);
    ChallengeBatch b;
    const ChallengeScreener::Outcome out = screen_reference(
        view, 3, StreamFamily(reference_rng.fork_base()), 0, 16,
        db.config().policy.max_selection_attempts, [&](const std::uint64_t* words, bool bit) {
          Challenge c;
          sim::challenge_from_words(words, view.stages(), c);
          if (!ledger.insert(store::pack_challenge(c)).second) return false;
          b.challenges.push_back(std::move(c));
          b.expected.push_back(bit);
          return true;
        });
    SCOPED_TRACE("round " + std::to_string(round));
    expect_batches_identical(a, b);
    EXPECT_EQ(a.candidates_tried, out.tried);
  }
}

TEST(ScreeningGolden, EnrollModelWalkMatchesTheRecordedSequence) {
  // Recorded from the serial walk of the release before the packed kernel:
  // moving the oracle cannot silently change the issued sequence.
  const char* const kKeys[] = {
      "04c3bee6", "a1f1fa07", "18b240a0", "9baa7b52", "fb92f669", "39a71655",
      "8fdcaf5f", "dd8aa3cd", "a0ab44bd", "ea8c15ac", "8ffda675", "3715de82",
      "e1ccca27", "c7d9af0c", "69d87e2d", "45193f39", "a3c20733", "f375957a",
      "aa142711", "96c63b0a", "b081193c", "ed6a7824", "d02a687e", "9339eb92",
      "6f7eb004", "1e27e86b", "3117b1f5", "0d8f11fa", "678a2e26", "9295b3f3",
      "0899a30f", "e932232a"};
  const std::string kBits = "11000110001110010111000110111011";
  const ServerModel model = enroll_model();
  const ModelView view = ModelView::of(model);
  for (const bool reference : {false, true}) {
    SCOPED_TRACE(reference ? "reference walk" : "packed kernel");
    const Walk w = run_walk(view, 3, reference, 0x601d, 0, 32, 1'000'000);
    EXPECT_EQ(w.out.tried, 183u);
    EXPECT_EQ(w.out.stable, 32u);
    EXPECT_EQ(w.out.next_index, 183u);
    ASSERT_EQ(w.challenges.size(), 32u);
    std::string bits;
    for (std::size_t i = 0; i < w.challenges.size(); ++i) {
      std::string hex;
      for (const unsigned char byte : store::pack_challenge(w.challenges[i])) {
        static const char kDigits[] = "0123456789abcdef";
        hex += kDigits[byte >> 4];
        hex += kDigits[byte & 15];
      }
      EXPECT_EQ(hex, kKeys[i]) << "challenge " << i;
      bits += w.bits[i] ? '1' : '0';
    }
    EXPECT_EQ(bits, kBits);
  }
}

// --- issuance pools ---------------------------------------------------------

DatabaseConfig pooled_config(std::size_t target) {
  return DatabaseConfig{.n_pufs = 3,
                        .policy = {.challenge_count = 16},
                        .pool = {.target = target, .low_water = 8,
                                 .seed = 0x706f6f6c73656564ull}};
}

TEST(IssuancePool, PooledSequenceIsAPureFunctionOfThePoolSeed) {
  ServerDatabase a(pooled_config(64));
  ServerDatabase b(pooled_config(64));
  a.register_device(enroll_model());
  b.register_device(enroll_model());
  Rng ra(1);
  Rng rb(0xfeed);
  for (int round = 0; round < 4; ++round) {
    const ChallengeBatch batch_a = a.issue(0, ra);
    const ChallengeBatch batch_b = b.issue(0, rb);
    SCOPED_TRACE("round " + std::to_string(round));
    expect_batches_identical(batch_a, batch_b);
  }
  // Neither caller RNG was touched: the pooled path never falls back.
  EXPECT_EQ(ra.next_u64(), Rng(1).next_u64());
}

TEST(IssuancePool, DrainRefillAccountingAndReplayFreedom) {
  ServerDatabase db(pooled_config(64));
  db.register_device(enroll_model());
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  std::set<Challenge> seen;
  for (int round = 1; round <= 12; ++round) {
    Rng rng(static_cast<std::uint64_t>(round));
    const ChallengeBatch batch = db.issue(0, rng);
    ASSERT_EQ(batch.challenges.size(), 16u);
    for (const auto& c : batch.challenges)
      EXPECT_TRUE(seen.insert(c).second) << "challenge reused in round " << round;
    if (round % 4 != 0) {
      // Pure drain: no screening ran at all.
      EXPECT_EQ(batch.candidates_tried, 0u) << "round " << round;
    } else {
      // target 64 / 16 per batch: every 4th round empties the pool below
      // low_water and pays one refill screen.
      EXPECT_GT(batch.candidates_tried, 0u) << "round " << round;
    }
  }
  const MetricsSnapshot after = MetricsRegistry::global().snapshot();
  EXPECT_EQ(counter_or_zero(after, "auth.pool_hits") -
                counter_or_zero(before, "auth.pool_hits"),
            12u);
  EXPECT_EQ(counter_or_zero(after, "auth.pool_misses"),
            counter_or_zero(before, "auth.pool_misses"));
  EXPECT_EQ(counter_or_zero(after, "auth.pool_refills") -
                counter_or_zero(before, "auth.pool_refills"),
            3u);
  EXPECT_EQ(counter_or_zero(after, "db.issue_requests") -
                counter_or_zero(before, "db.issue_requests"),
            12u);
  EXPECT_EQ(db.issued_count(0), 192u);
  // The fleet gauge tracks this device's undrained entries exactly.
  EXPECT_EQ(after.gauges.at("auth.pool_size"),
            static_cast<double>(db.pool_remaining(0)));
  EXPECT_GE(db.pool_remaining(0), 8u);
}

TEST(IssuancePool, DisabledPoolingIsBitIdenticalToLiveScreening) {
  ServerDatabase pooled_off(pooled_config(0));
  ServerDatabase reference(pooled_config(0));
  pooled_off.register_device(enroll_model());
  reference.register_device(enroll_model());
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  Rng ra(4242);
  Rng rb(4242);
  const ChallengeBatch via_issue = pooled_off.issue(0, ra);
  const ChallengeBatch via_live = reference.issue_live(0, rb);
  expect_batches_identical(via_issue, via_live);
  const MetricsSnapshot after = MetricsRegistry::global().snapshot();
  // issue() ledger: one request, resolved as a pool miss; the direct
  // issue_live() call (the bench's reference side) counts in neither.
  EXPECT_EQ(counter_or_zero(after, "db.issue_requests") -
                counter_or_zero(before, "db.issue_requests"),
            1u);
  EXPECT_EQ(counter_or_zero(after, "auth.pool_misses") -
                counter_or_zero(before, "auth.pool_misses"),
            1u);
  EXPECT_EQ(counter_or_zero(after, "auth.pool_hits"),
            counter_or_zero(before, "auth.pool_hits"));
}

TEST(IssuancePool, DryScreeningBypassesThePoolThenSurfacesExhaustion) {
  DatabaseConfig cfg = pooled_config(8);
  cfg.policy.max_selection_attempts = 200;
  ServerDatabase db(cfg);
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  // Thresholds classify every candidate unstable: registration's pre-screen
  // and both in-issue refills come back empty, so issue() bypasses to live
  // screening — which then exhausts the same attempt budget honestly.
  db.register_device(make_plain_model(0, 64, /*unstable=*/true));
  EXPECT_EQ(db.pool_remaining(0), 0u);
  Rng rng(7);
  EXPECT_THROW((void)db.issue(0, rng), NumericalError);
  const MetricsSnapshot after = MetricsRegistry::global().snapshot();
  EXPECT_EQ(counter_or_zero(after, "auth.pool_misses") -
                counter_or_zero(before, "auth.pool_misses"),
            1u);
  // One registration refill + two dry in-issue refills.
  EXPECT_EQ(counter_or_zero(after, "auth.pool_refills") -
                counter_or_zero(before, "auth.pool_refills"),
            3u);
}

// Regression: a failed issue left its un-sent challenges in the replay
// ledger. fill_live inserts each accepted key before the batch is complete;
// when the attempt budget then ran out, NumericalError skipped
// finish_issue, so the ledger remembered keys no log record held (39 here,
// and 0 again after a reopen) and in-memory ledgers drifted from
// db.ledger_size. A 32-stage plain model accepts 39 of the 40 allowed
// candidates, one short of the 64-challenge batch.
TEST(IssuancePool, FailedIssueLeavesNoUnsentChallengeInTheLedger) {
  DatabaseConfig cfg = pooled_config(0);
  cfg.policy.challenge_count = 64;
  cfg.policy.max_selection_attempts = 40;
  {
    ServerDatabase db(cfg);
    db.register_device(make_plain_model(0, 32));
    Rng rng(3);
    EXPECT_THROW((void)db.issue(0, rng), NumericalError);
    EXPECT_EQ(db.issued_count(0), 0u);
  }
  const std::string dir = unique_dir("failed_issue");
  fs::remove_all(dir);
  {
    ServerDatabase db = ServerDatabase::open(dir, cfg);
    db.register_device(make_plain_model(0, 32));
    Rng rng(3);
    EXPECT_THROW((void)db.issue(0, rng), NumericalError);
    EXPECT_EQ(db.issued_count(0), 0u);
  }
  {
    ServerDatabase db = ServerDatabase::open(dir, cfg);
    EXPECT_EQ(db.issued_count(0), 0u);
  }
  fs::remove_all(dir);
}

TEST(IssuancePool, CrashRecoveryRedrainIsScreenedByTheDurableLedger) {
  const std::string dir = unique_dir("redrain");
  fs::remove_all(dir);
  ChallengeBatch first;
  {
    ServerDatabase db = ServerDatabase::open(dir, pooled_config(64));
    db.register_device(enroll_model());
    Rng rng(1);
    first = db.issue(0, rng);
    EXPECT_EQ(first.replay_rejected, 0u);
    ASSERT_EQ(first.challenges.size(), 16u);
  }
  {
    // Reopen == crash recovery: the drain head is volatile and resets to 0,
    // so the first batch's entries are re-drained — and every one of them
    // is rejected by the replayed ledger, never re-issued.
    ServerDatabase db = ServerDatabase::open(dir, pooled_config(64));
    Rng rng(2);
    const ChallengeBatch second = db.issue(0, rng);
    EXPECT_EQ(second.replay_rejected, 16u);
    ASSERT_EQ(second.challenges.size(), 16u);
    std::set<Challenge> overlap(first.challenges.begin(), first.challenges.end());
    for (const auto& c : second.challenges)
      EXPECT_EQ(overlap.count(c), 0u) << "issued challenge repeated after recovery";
  }
  fs::remove_all(dir);
}

// Regression: a refill checked candidates against the ledger but not against
// the pool it was building, so a small challenge space let the same
// challenge enter one pool twice and the drain's replay guard then counted
// the second copy — in a crash-free run. 8 stages leave 256 challenges, so
// the candidate stream repeats long before 48 stable entries are found.
TEST(IssuancePool, RefillNeverPoolsTheSameChallengeTwice) {
  const std::string dir = unique_dir("pool_distinct");
  fs::remove_all(dir);
  constexpr std::size_t kTarget = 48;
  DatabaseConfig cfg = pooled_config(kTarget);
  cfg.pool.low_water = 0;  // no top-up: the drain below empties one pool
  {
    ServerDatabase db = ServerDatabase::open(dir, cfg);
    db.register_device(make_plain_model(0, 8));
    store::PoolPayload pool;
    ASSERT_TRUE(db.store().read_pool(0, pool));
    ASSERT_EQ(pool.size(), kTarget);
    ASSERT_EQ(pool.words.size(), kTarget);  // 8 stages: one word per entry
    const std::set<std::uint64_t> distinct(pool.words.begin(), pool.words.end());
    EXPECT_EQ(distinct.size(), pool.size()) << "a challenge was pooled twice";

    const MetricsSnapshot before = MetricsRegistry::global().snapshot();
    std::set<Challenge> seen;
    for (std::size_t round = 0; round < kTarget / 16; ++round) {
      Rng rng(round);
      const ChallengeBatch batch = db.issue(0, rng);
      EXPECT_EQ(batch.replay_rejected, 0u) << "round " << round;
      EXPECT_EQ(batch.candidates_tried, 0u) << "round " << round << " was not a pure drain";
      for (const auto& c : batch.challenges)
        EXPECT_TRUE(seen.insert(c).second) << "challenge reused in round " << round;
    }
    const MetricsSnapshot after = MetricsRegistry::global().snapshot();
    EXPECT_EQ(counter_or_zero(after, "auth.replay_rejected"),
              counter_or_zero(before, "auth.replay_rejected"));
    EXPECT_EQ(db.pool_remaining(0), 0u);
    EXPECT_EQ(db.issued_count(0), kTarget);
  }
  fs::remove_all(dir);
}

// A refill resumes the candidate stream past everything already pooled, but
// in a small challenge space that stream repeats challenges the device was
// already issued. The refill must skip them against the replay ledger, so
// no drain ever meets a replay in a crash-free run.
TEST(IssuancePool, RefillSkipsChallengesTheDeviceWasAlreadyIssued) {
  DatabaseConfig cfg = pooled_config(16);  // every issue drains one pool
  cfg.pool.low_water = 16;                 // ... and refills it
  ServerDatabase db(cfg);
  db.register_device(make_plain_model(0, 8));
  std::set<Challenge> seen;
  std::size_t rounds = 0;
  for (; rounds < 12; ++rounds) {
    Rng rng(rounds);
    ChallengeBatch batch;
    try {
      batch = db.issue(0, rng);
    } catch (const NumericalError&) {
      break;  // 256 challenges: the stable ones run out
    }
    EXPECT_EQ(batch.replay_rejected, 0u) << "round " << rounds;
    for (const auto& c : batch.challenges)
      EXPECT_TRUE(seen.insert(c).second) << "challenge reused in round " << rounds;
  }
  EXPECT_GE(rounds, 3u) << "too few refills to exercise the ledger check";
  EXPECT_EQ(db.issued_count(0), seen.size());
}

// --- POOL records in the store ----------------------------------------------

store::PoolPayload make_pool_payload(std::uint32_t stages, std::size_t entries) {
  store::PoolPayload pool;
  pool.stages = stages;
  pool.epoch = 1;
  pool.cursor = 987'654'321;
  for (std::size_t i = 0; i < entries; ++i) {
    Challenge c(stages);
    for (std::size_t j = 0; j < stages; ++j)
      c[j] = static_cast<std::uint8_t>((i + j) % 2);
    pool.words.resize(pool.words.size() + sim::packed_words(stages));
    store::pack_words(c, pool.words.data() + pool.words.size() - sim::packed_words(stages));
    pool.expected.push_back(static_cast<std::uint8_t>(i % 2));
  }
  return pool;
}

void expect_pools_equal(const store::PoolPayload& a, const store::PoolPayload& b) {
  EXPECT_EQ(a.stages, b.stages);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.cursor, b.cursor);
  EXPECT_EQ(a.words, b.words);
  EXPECT_EQ(a.expected, b.expected);
}

TEST(PoolRecord, RoundTripsThroughStoreCompactionAndReplay) {
  const std::string dir = unique_dir("pool_roundtrip");
  fs::remove_all(dir);
  // Odd stage count on purpose: the packed rows (2 bytes each) and the
  // expected-bit bitmap exercise the sub-byte tails.
  const store::PoolPayload pool = make_pool_payload(13, 9);
  {
    store::EnrollmentStore s = store::EnrollmentStore::open(dir, {});
    s.register_device(make_plain_model(7, 13));
    store::PoolPayload stale = make_pool_payload(13, 4);
    stale.epoch = 0;
    s.record_pool(7, stale);
    s.record_pool(7, pool);  // append order is authority: latest wins
    store::PoolPayload got;
    ASSERT_TRUE(s.read_pool(7, got));
    expect_pools_equal(pool, got);
    s.set_pool_head(7, 3);
    EXPECT_EQ(s.pool_entries_total(), 6u);
    s.compact();
    store::PoolPayload after;
    ASSERT_TRUE(s.read_pool(7, after));
    expect_pools_equal(pool, after);
    store::PoolSlot slot;
    ASSERT_TRUE(s.pool_slot(7, slot));
    EXPECT_EQ(slot.head, 3u);  // head/epoch/cursor survive; only bytes moved
    EXPECT_EQ(s.pool_entries_total(), 6u);
  }
  {
    store::EnrollmentStore s = store::EnrollmentStore::open(dir, {});
    store::PoolSlot slot;
    ASSERT_TRUE(s.pool_slot(7, slot));
    EXPECT_EQ(slot.head, 0u);  // the drain head is volatile by contract
    EXPECT_EQ(slot.epoch, 1u);
    EXPECT_EQ(slot.cursor, 987'654'321u);
    store::PoolPayload got;
    ASSERT_TRUE(s.read_pool(7, got));
    expect_pools_equal(pool, got);
    // Slices materialize exactly the asked-for window.
    std::vector<std::uint64_t> words;
    std::vector<std::uint8_t> expected;
    s.read_pool_slice(7, 3, 4, words, expected);
    ASSERT_EQ(words.size(), 4u);  // 13 stages: one word per entry
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(words[i], pool.words[3 + i]);
      EXPECT_EQ(expected[i], pool.expected[3 + i]);
    }
  }
  fs::remove_all(dir);
}

TEST(PoolRecord, TruncationAtEveryByteKeepsTheAcknowledgedPrefix) {
  const std::string dir = unique_dir("pool_cut");
  fs::remove_all(dir);
  const store::PoolPayload pool = make_pool_payload(13, 9);
  std::uint64_t register_end = 0;
  std::uint64_t pool_end = 0;
  store::StoreOptions opts;
  opts.n_shards = 1;
  {
    store::EnrollmentStore s = store::EnrollmentStore::open(dir, opts);
    s.register_device(make_plain_model(0, 13));
    register_end = s.shard_size(0);
    s.record_pool(0, pool);
    pool_end = s.shard_size(0);
  }
  const std::string shard_path = dir + "/shard_0.log";
  const std::string scratch = unique_dir("pool_cut_scratch");
  for (std::uint64_t cut = 0; cut <= pool_end; ++cut) {
    fs::remove_all(scratch);
    fs::copy(dir, scratch, fs::copy_options::recursive);
    fs::resize_file(scratch + "/shard_0.log", cut);
    store::EnrollmentStore s = store::EnrollmentStore::open(scratch, opts);
    const std::uint64_t expect_size =
        cut >= pool_end ? pool_end : (cut >= register_end ? register_end : 0);
    EXPECT_EQ(s.shard_size(0), expect_size) << "cut " << cut;
    EXPECT_EQ(s.knows(0), cut >= register_end) << "cut " << cut;
    store::PoolPayload got;
    if (cut >= pool_end) {
      ASSERT_TRUE(s.read_pool(0, got)) << "cut " << cut;
      expect_pools_equal(pool, got);
    } else {
      EXPECT_FALSE(s.read_pool(0, got)) << "cut " << cut;
      EXPECT_EQ(s.pool_entries_total(), 0u) << "cut " << cut;
    }
  }
  fs::remove_all(scratch);
  fs::remove_all(dir);
  (void)shard_path;
}

// --- zero-copy mapped model serving ------------------------------------------

TEST(MappedServing, RegisterRecordFloatRegionsStayEightByteAligned) {
  const std::string dir = unique_dir("alignment");
  fs::remove_all(dir);
  store::StoreOptions opts;
  opts.n_shards = 1;
  store::EnrollmentStore s = store::EnrollmentStore::open(dir, opts);
  // Interleave REGISTERs with odd-length ISSUE records (13-stage keys pack
  // to 2 bytes) so every alignment phase is visited.
  for (std::uint64_t id = 0; id < 5; ++id) {
    s.register_device(make_plain_model(id, 13));
    Challenge c(13, static_cast<std::uint8_t>(id % 2));
    std::vector<std::uint64_t> key(1);
    store::pack_words(c, key.data());
    s.ledger(id).insert(key.data());
    s.record_issued(id, 13, key);
    // REGISTER payload: 8 bytes of geometry, then the f64 region — at
    // record offset + header(16) + 8. The pad record in front guarantees
    // this lands on an 8-byte boundary for every device.
    EXPECT_EQ((s.device_record(id).offset + 24) % 8, 0u) << "device " << id;
  }
  fs::remove_all(dir);
}

TEST(MappedServing, ColdModelViewsAreZeroCopyBitExactAndSurviveCompaction) {
  const std::string dir = unique_dir("mmap_serving");
  fs::remove_all(dir);
  store::StoreOptions opts;
  opts.n_shards = 1;
  opts.cache_capacity = 1;
  {
    store::EnrollmentStore s = store::EnrollmentStore::open(dir, opts);
    for (std::uint64_t id = 0; id < 3; ++id) s.register_device(make_plain_model(id, 64));
  }
  // Reopen: the shard mapping now covers every record written above.
  store::EnrollmentStore s = store::EnrollmentStore::open(dir, opts);
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  ModelView held;
  for (std::uint64_t id = 0; id < 3; ++id) {
    const ModelView view = s.model_view(id);
    const ServerModel ref = make_plain_model(id, 64);
    const ModelView expect = ModelView::of(ref);
    ASSERT_EQ(view.puf_count(), expect.puf_count());
    ASSERT_EQ(view.stages(), expect.stages());
    EXPECT_EQ(view.chip_id(), id);
    for (std::size_t p = 0; p < view.puf_count(); ++p) {
      const std::span<const double> got = view.weights(p);
      const std::span<const double> want = expect.weights(p);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t k = 0; k < got.size(); ++k)
        ASSERT_EQ(got[k], want[k]) << "id " << id << " puf " << p << " w" << k;
    }
    if (id == 0) held = view;
  }
  const MetricsSnapshot after = MetricsRegistry::global().snapshot();
  // The cache is cold (capacity 1, nothing decoded): every resolution was a
  // mapped view, no parse, no copy.
  EXPECT_EQ(counter_or_zero(after, "db.mmap_hits") -
                counter_or_zero(before, "db.mmap_hits"),
            3u);
  EXPECT_GT(counter_or_zero(after, "db.mmap_bytes"),
            counter_or_zero(before, "db.mmap_bytes"));
  // Compaction rewrites the shard and remaps it; the held view co-owns the
  // OLD mapping and must keep reading the same bits.
  s.compact();
  const ServerModel ref = make_plain_model(0, 64);
  const ModelView expect = ModelView::of(ref);
  for (std::size_t p = 0; p < held.puf_count(); ++p) {
    const std::span<const double> got = held.weights(p);
    const std::span<const double> want = expect.weights(p);
    for (std::size_t k = 0; k < got.size(); ++k) ASSERT_EQ(got[k], want[k]);
  }
  fs::remove_all(dir);
}

// A device registered after the store was opened over a mapped shard is
// served from the mapping too once the LRU has evicted it; a store created
// empty has no mapping and keeps serving new devices through decode.
TEST(MappedServing, DevicesRegisteredIntoAMappedShardAreServedZeroCopy) {
  const std::string dir = unique_dir("mmap_late_register");
  fs::remove_all(dir);
  store::StoreOptions opts;
  opts.n_shards = 1;
  opts.cache_capacity = 1;
  const auto mmap_hits_of = [&](store::EnrollmentStore& s, std::uint64_t id) {
    const MetricsSnapshot before = MetricsRegistry::global().snapshot();
    const ModelView view = s.model_view(id);
    const ServerModel ref = make_plain_model(id, 64);
    for (std::size_t p = 0; p < view.puf_count(); ++p) {
      const std::span<const double> got = view.weights(p);
      const std::span<const double> want = ModelView::of(ref).weights(p);
      for (std::size_t k = 0; k < got.size(); ++k) EXPECT_EQ(got[k], want[k]);
    }
    return counter_or_zero(MetricsRegistry::global().snapshot(), "db.mmap_hits") -
           counter_or_zero(before, "db.mmap_hits");
  };
  {
    store::EnrollmentStore s = store::EnrollmentStore::open(dir, opts);
    s.register_device(make_plain_model(0, 64));
    s.register_device(make_plain_model(1, 64));  // evicts device 0
    EXPECT_EQ(mmap_hits_of(s, 0), 0u) << "a never-mapped store decodes";
  }
  store::EnrollmentStore s = store::EnrollmentStore::open(dir, opts);
  s.register_device(make_plain_model(2, 64));
  s.register_device(make_plain_model(3, 64));  // evicts device 2
  EXPECT_EQ(mmap_hits_of(s, 2), 1u);
  EXPECT_EQ(mmap_hits_of(s, 0), 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace xpuf::puf
