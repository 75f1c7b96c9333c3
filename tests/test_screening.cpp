// Tests for the authentication hot path: the batched stable-challenge
// screener's bit-exactness contract (any block size x any thread count ==
// the serial reference walk), per-device issuance pools (drain, low-water
// refill, live fallback, crash re-drain), the POOL record's crash safety at
// every truncation point, and zero-copy mapped model serving.

// GCC 12's value-range propagation mis-models std::less<vector<uint8_t>> when
// set::insert inlines memcmp in Release and reports an impossible bound
// (stringop-overread); the comparison is well-defined for any real vector.
// Before the includes because the late-IPA diagnostic anchors inside libstdc++.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wstringop-overread"
#endif

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "puf/database.hpp"
#include "puf/enrollment.hpp"
#include "puf/screening.hpp"
#include "puf/store/record.hpp"
#include "puf/store/store.hpp"
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

Walk run_walk(const ModelView& view, ScreeningOptions opts, std::uint64_t family_base,
              std::uint64_t first, std::size_t count, std::size_t max_attempts) {
  ChallengeScreener screener(view, 3, opts);
  Walk w;
  w.out = screener.screen(StreamFamily(family_base), first, count, max_attempts,
                          [&](Challenge&& c, bool bit) {
                            w.challenges.push_back(std::move(c));
                            w.bits.push_back(bit);
                            return true;
                          });
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

// --- batched screening bit-exactness ----------------------------------------

TEST(ScreeningEquivalence, BatchedMatchesSerialAtEveryBlockSizeAndThreadCount) {
  const ServerModel model = enroll_model();
  const ModelView view = ModelView::of(model);
  const std::uint64_t base = 0xdecafbadULL;
  const Walk ref =
      run_walk(view, {.block = 256, .batched = false}, base, 0, 24, 1'000'000);
  ASSERT_TRUE(ref.out.filled);
  ASSERT_EQ(ref.out.accepted, 24u);
  // Rejection sampling really rejected something, or the model is degenerate
  // and the equivalence below is vacuous.
  ASSERT_GT(ref.out.tried, ref.out.accepted);

  const std::size_t kBlocks[] = {1, 64, 1024};
  const std::size_t kThreads[] = {1, 2, 8};
  for (const std::size_t block : kBlocks) {
    for (const std::size_t threads : kThreads) {
      ThreadPool::set_global_threads(threads);
      const Walk got =
          run_walk(view, {.block = block, .batched = true}, base, 0, 24, 1'000'000);
      SCOPED_TRACE("block=" + std::to_string(block) +
                   " threads=" + std::to_string(threads));
      expect_walks_identical(ref, got);
    }
  }
  ThreadPool::set_global_threads(0);
}

TEST(ScreeningEquivalence, WalkResumesFromNextIndexWithoutSeams) {
  const ServerModel model = enroll_model();
  const ModelView view = ModelView::of(model);
  const std::uint64_t base = 77;
  const Walk whole = run_walk(view, {}, base, 0, 24, 1'000'000);
  Walk head = run_walk(view, {}, base, 0, 10, 1'000'000);
  const Walk tail = run_walk(view, {}, base, head.out.next_index, 14, 1'000'000);
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
  // shape) must leave both modes walking the identical candidate sequence.
  const auto run = [&](bool batched) {
    ChallengeScreener s(view, 3, {.block = 64, .batched = batched});
    Walk w;
    bool toggle = false;
    w.out = s.screen(StreamFamily(31337), 0, 12, 1'000'000,
                     [&](Challenge&& c, bool bit) {
                       toggle = !toggle;
                       if (!toggle) return false;
                       w.challenges.push_back(std::move(c));
                       w.bits.push_back(bit);
                       return true;
                     });
    return w;
  };
  const Walk serial = run(false);
  const Walk batched = run(true);
  expect_walks_identical(serial, batched);
  EXPECT_EQ(serial.out.accepted, 12u);
  // accept/reject alternation ending on the 12th accept: 23 stable in total.
  EXPECT_EQ(serial.out.stable, 23u);
}

TEST(ScreeningEquivalence, ScreeningConsumesNothingFromTheCallerRng) {
  const ServerModel model = enroll_model();
  const ModelView view = ModelView::of(model);
  Rng used(42);
  Rng mirror(42);
  const StreamFamily family(used.fork_base());
  (void)mirror.fork_base();
  (void)run_walk(view, {}, family.base(), 0, 24, 1'000'000);
  // The walk seeded per-candidate streams from the family alone; the caller
  // RNG advanced exactly one fork_base() draw.
  EXPECT_EQ(used.next_u64(), mirror.next_u64());
}

TEST(ScreeningEquivalence, IssueLiveIsBitIdenticalAcrossScreeningModes) {
  const DatabaseConfig serial_cfg{
      .n_pufs = 3,
      .policy = {.challenge_count = 16},
      .screening = {.block = 256, .batched = false},
      .pool = {}};
  DatabaseConfig batched_cfg = serial_cfg;
  batched_cfg.screening.batched = true;
  ServerDatabase serial_db(serial_cfg);
  ServerDatabase batched_db(batched_cfg);
  serial_db.register_device(enroll_model());
  batched_db.register_device(enroll_model());
  for (int round = 0; round < 4; ++round) {
    Rng serial_rng(900 + round);
    Rng batched_rng(900 + round);
    const ChallengeBatch a = serial_db.issue_live(0, serial_rng);
    const ChallengeBatch b = batched_db.issue_live(0, batched_rng);
    SCOPED_TRACE("round " + std::to_string(round));
    expect_batches_identical(a, b);
    EXPECT_EQ(a.candidates_tried, b.candidates_tried);
  }
}

// --- issuance pools ---------------------------------------------------------

DatabaseConfig pooled_config(std::size_t target) {
  return DatabaseConfig{.n_pufs = 3,
                        .policy = {.challenge_count = 16},
                        .screening = {},
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
    ASSERT_EQ(pool.keys.size(), kTarget);
    const std::set<std::string> distinct(pool.keys.begin(), pool.keys.end());
    EXPECT_EQ(distinct.size(), pool.keys.size()) << "a challenge was pooled twice";

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
    pool.keys.push_back(store::pack_challenge(c));
    pool.expected.push_back(static_cast<std::uint8_t>(i % 2));
  }
  return pool;
}

void expect_pools_equal(const store::PoolPayload& a, const store::PoolPayload& b) {
  EXPECT_EQ(a.stages, b.stages);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.cursor, b.cursor);
  EXPECT_EQ(a.keys, b.keys);
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
    std::vector<std::string> keys;
    std::vector<std::uint8_t> expected;
    s.read_pool_slice(7, 3, 4, keys, expected);
    ASSERT_EQ(keys.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(keys[i], pool.keys[3 + i]);
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
    const std::string key = store::pack_challenge(c);
    s.ledger(id).insert(key);
    s.record_issued(id, 13, {key});
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

}  // namespace
}  // namespace xpuf::puf
