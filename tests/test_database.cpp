// Tests for the multi-device server database: registration, replay
// protection, authentication routing, and persistence.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "common/error.hpp"
#include "puf/database.hpp"
#include "puf/threshold_adjust.hpp"
#include "sim/population.hpp"

namespace xpuf::puf {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNPufs = 3;

  DatabaseTest()
      : pop_(make_config()), rng_(808), db_(config()) {
    EnrollmentConfig cfg;
    cfg.training_challenges = 2'000;
    cfg.trials = 2'000;
    for (std::size_t i = 0; i < pop_.size(); ++i) {
      ServerModel m = Enroller(cfg).enroll(pop_.chip(i), rng_);
      m.set_betas(BetaFactors{0.85, 1.15});
      db_.register_device(std::move(m));
    }
  }

  static DatabaseConfig config() {
    return DatabaseConfig{
        .n_pufs = kNPufs, .policy = {.challenge_count = 16}, .pool = {}};
  }

  static std::string temp_dir(const std::string& tag) {
    return (std::filesystem::temp_directory_path() /
            ("xpuf_db_" + tag + "_" + std::to_string(::getpid())))
        .string();
  }

  /// A database opened at `dir` holding copies of the fixture's devices.
  ServerDatabase open_copy(const std::string& dir) {
    ServerDatabase db = ServerDatabase::open(dir, config());
    for (std::size_t id = 0; id < pop_.size(); ++id)
      db.register_device(ServerModel(*db_.model_snapshot(id)));
    return db;
  }

  static sim::PopulationConfig make_config() {
    sim::PopulationConfig cfg;
    cfg.n_chips = 2;
    cfg.n_pufs_per_chip = kNPufs;
    cfg.seed = 5150;
    return cfg;
  }

  sim::ChipPopulation pop_;
  Rng rng_;
  ServerDatabase db_;
};

TEST_F(DatabaseTest, RegistryBookkeeping) {
  EXPECT_EQ(db_.device_count(), 2u);
  EXPECT_TRUE(db_.knows(0));
  EXPECT_TRUE(db_.knows(1));
  EXPECT_FALSE(db_.knows(7));
  EXPECT_THROW(db_.model_snapshot(7), std::invalid_argument);
  EXPECT_NO_THROW(db_.model_snapshot(0));
}

TEST_F(DatabaseTest, DuplicateRegistrationRejected) {
  EnrollmentConfig cfg;
  cfg.training_challenges = 500;
  cfg.trials = 1'000;
  ServerModel m = Enroller(cfg).enroll(pop_.chip(0), rng_);
  EXPECT_THROW(db_.register_device(std::move(m)), std::invalid_argument);
}

TEST_F(DatabaseTest, RevocationRemovesDevice) {
  db_.revoke_device(1);
  EXPECT_FALSE(db_.knows(1));
  EXPECT_EQ(db_.device_count(), 1u);
  EXPECT_THROW(db_.revoke_device(1), std::invalid_argument);
}

// GCC 12's value-range propagation mis-models std::less<vector<uint8_t>> when
// set::insert inlines memcmp in Release and reports an impossible bound
// (stringop-overread); the comparison is well-defined for any real vector.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overread"
#endif
TEST_F(DatabaseTest, IssueNeverRepeatsAChallenge) {
  std::set<std::vector<std::uint8_t>> seen;
  for (int round = 0; round < 6; ++round) {
    const ChallengeBatch batch = db_.issue(0, rng_);
    EXPECT_EQ(batch.challenges.size(), 16u);
    for (const auto& c : batch.challenges)
      EXPECT_TRUE(seen.insert(c).second) << "challenge reused across batches";
  }
  EXPECT_EQ(db_.issued_count(0), 96u);
  // Device 1's ledger is independent.
  EXPECT_EQ(db_.issued_count(1), 0u);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

TEST_F(DatabaseTest, AuthenticateRoutesByChipId) {
  const DatabaseAuthOutcome genuine =
      db_.authenticate(pop_.chip(0), sim::Environment::nominal(), rng_);
  EXPECT_TRUE(genuine.known_device);
  EXPECT_TRUE(genuine.outcome.approved);
  EXPECT_EQ(genuine.outcome.mismatches, 0u);

  // The "wrong" physical chip claiming id 1 is chip 1's own silicon, so it
  // passes; a counterfeit would present chip 0's id but chip 1's silicon —
  // simulate by verifying chip 1's responses against chip 0's batch.
  const ChallengeBatch batch = db_.issue(0, rng_);
  std::vector<bool> responses;
  for (const auto& c : batch.challenges)
    responses.push_back(pop_.chip(1).xor_response(c, sim::Environment::nominal(), rng_));
  const AuthenticationOutcome fake = db_.verify(0, batch, responses);
  EXPECT_FALSE(fake.approved);
}

// Regression (ISSUE 3): DatabaseAuthOutcome::replay_rejected was never
// populated. A second authentication whose issuance RNG is re-seeded
// identically re-draws the first session's challenges; every one of them is
// ledger-filtered, must be counted, and the batch must still refill from
// fresh draws and approve.
TEST_F(DatabaseTest, ReplayedSessionRejectionsAreCounted) {
  Rng first_session(777);
  const DatabaseAuthOutcome first =
      db_.authenticate(pop_.chip(0), sim::Environment::nominal(), first_session);
  EXPECT_TRUE(first.outcome.approved);
  EXPECT_EQ(first.replay_rejected, 0u);
  EXPECT_GE(first.outcome.candidates_tried, 16u);  // selection cost surfaced
  EXPECT_EQ(db_.issued_count(0), 16u);

  Rng replayed_session(777);  // identical seed -> identical candidate stream
  const DatabaseAuthOutcome second =
      db_.authenticate(pop_.chip(0), sim::Environment::nominal(), replayed_session);
  EXPECT_TRUE(second.known_device);
  EXPECT_GE(second.replay_rejected, 16u) << "ledger-filtered candidates went uncounted";
  EXPECT_TRUE(second.outcome.approved) << "batch must refill past the replays";
  EXPECT_EQ(db_.issued_count(0), 32u);  // 16 fresh challenges joined the ledger
}

// Regression: save() once deleted stale device_*/ledger_* files before
// writing — revoke -> save over an existing directory could resurrect the
// revoked device on the next load, and a crash between delete and write lost
// the fleet. The store keeps the fix structurally: the REVOKE record is
// replayed in order, and compaction swaps each shard for a complete image of
// the surviving registry via write-temp-then-rename.
TEST_F(DatabaseTest, RevokeThenSaveDoesNotResurrectOnLoad) {
  const std::string dir = temp_dir("revoke");
  std::filesystem::remove_all(dir);
  {
    ServerDatabase db = open_copy(dir);
    db.issue(1, rng_);  // give device 1 ledger entries too
    db.save(dir);
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/store_manifest"))
      << "the registry lives in the binary store layout";
  {
    ServerDatabase db = ServerDatabase::open(dir, config());
    EXPECT_TRUE(db.knows(1));
    EXPECT_EQ(db.issued_count(1), 16u);
    db.revoke_device(1);
    db.save(dir);  // compaction must drop the device, not accrete
  }
  ServerDatabase reopened = ServerDatabase::open(dir, config());
  EXPECT_EQ(reopened.device_count(), 1u);
  EXPECT_TRUE(reopened.knows(0));
  EXPECT_FALSE(reopened.knows(1)) << "revoked device resurrected from stale records";
  std::filesystem::remove_all(dir);
}

TEST_F(DatabaseTest, SavePreservesUnrelatedFiles) {
  const std::string dir = temp_dir("unrelated");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream note(dir + "/README.txt");
    note << "operator notes\n";
  }
  {
    ServerDatabase db = open_copy(dir);
    db.save(dir);
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/README.txt"))
      << "open() and save() must only touch the store's own files";
  EXPECT_EQ(ServerDatabase::open(dir, config()).device_count(), 2u);
  std::filesystem::remove_all(dir);
}

// An in-memory database is an ephemeral serving registry: the store is the
// only way to disk, and an opened database compacts only in its own home.
TEST_F(DatabaseTest, SaveRequiresAnOpenedDatabase) {
  EXPECT_THROW(db_.save(temp_dir("in_memory")), std::invalid_argument);
  const std::string dir = temp_dir("elsewhere");
  std::filesystem::remove_all(dir);
  {
    ServerDatabase db = open_copy(dir);
    EXPECT_THROW(db.save(dir + "_other"), std::invalid_argument);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(DatabaseTest, UnknownDeviceIsDeniedWithoutThrowing) {
  sim::PopulationConfig cfg = make_config();
  cfg.seed = 999;
  cfg.n_chips = 5;
  sim::ChipPopulation strangers(cfg);
  const DatabaseAuthOutcome out =
      db_.authenticate(strangers.chip(4), sim::Environment::nominal(), rng_);
  EXPECT_FALSE(out.known_device);
  EXPECT_FALSE(out.outcome.approved);
}

TEST_F(DatabaseTest, SaveAndLoadPreservesModelsAndLedger) {
  const std::string dir = temp_dir("save");
  std::filesystem::remove_all(dir);
  std::size_t issued_before = 0;
  {
    ServerDatabase db = open_copy(dir);
    db.issue(0, rng_);
    db.issue(0, rng_);
    issued_before = db.issued_count(0);
    db.save(dir);  // compaction
  }
  ServerDatabase reopened = ServerDatabase::open(dir, config());
  EXPECT_EQ(reopened.device_count(), 2u);
  EXPECT_EQ(reopened.issued_count(0), issued_before);
  EXPECT_EQ(reopened.issued_count(1), 0u);
  // Models survive compaction bit-exactly.
  for (std::size_t id = 0; id < pop_.size(); ++id) {
    const auto original = db_.model_snapshot(id);
    const auto survived = reopened.model_snapshot(id);
    ASSERT_EQ(survived->puf_count(), original->puf_count());
    for (std::size_t p = 0; p < original->puf_count(); ++p)
      EXPECT_EQ(survived->puf(p).model.weights().raw(),
                original->puf(p).model.weights().raw());
  }
  // The restored database still authenticates the genuine chip.
  const DatabaseAuthOutcome out =
      reopened.authenticate(pop_.chip(0), sim::Environment::nominal(), rng_);
  EXPECT_TRUE(out.outcome.approved);
  std::filesystem::remove_all(dir);
}

// A store-backed database shares the serving semantics of the in-memory one
// but every op is logged: kill the object at any point and reopen.
TEST_F(DatabaseTest, BackedDatabaseAuthenticatesAndSurvivesReopen) {
  const std::string dir = temp_dir("backed");
  std::filesystem::remove_all(dir);
  store::StoreOptions opts;
  opts.n_shards = 2;
  opts.cache_capacity = 1;  // harsher than any deployment would pick
  EnrollmentConfig ecfg;
  ecfg.training_challenges = 2'000;
  ecfg.trials = 2'000;
  {
    ServerDatabase db = ServerDatabase::open(dir, config(), opts);
    EXPECT_EQ(db.store().n_shards(), 2u);
    for (std::size_t i = 0; i < pop_.size(); ++i) {
      ServerModel m = Enroller(ecfg).enroll(pop_.chip(i), rng_);
      m.set_betas(BetaFactors{0.85, 1.15});
      db.register_device(std::move(m));
    }
    const DatabaseAuthOutcome out =
        db.authenticate(pop_.chip(0), sim::Environment::nominal(), rng_);
    EXPECT_TRUE(out.outcome.approved);
    EXPECT_EQ(db.issued_count(0), 16u);
    EXPECT_EQ(db.store().cache_size(), 1u);
  }  // no save(): the op log itself carries every op
  ServerDatabase reopened = ServerDatabase::open(dir, config(), opts);
  EXPECT_EQ(reopened.device_count(), 2u);
  EXPECT_EQ(reopened.issued_count(0), 16u);
  EXPECT_EQ(reopened.issued_count(1), 0u);
  EXPECT_NE(reopened.model_snapshot(0), nullptr);
  EXPECT_THROW(reopened.model_snapshot(7), std::invalid_argument);
  const DatabaseAuthOutcome out =
      reopened.authenticate(pop_.chip(0), sim::Environment::nominal(), rng_);
  EXPECT_TRUE(out.outcome.approved);
  std::filesystem::remove_all(dir);
}

TEST_F(DatabaseTest, WidthMismatchRejectedAtRegistration) {
  sim::PopulationConfig cfg = make_config();
  cfg.seed = 31;
  cfg.n_pufs_per_chip = 2;  // narrower than the database width of 3
  sim::ChipPopulation narrow(cfg);
  EnrollmentConfig ecfg;
  ecfg.training_challenges = 300;
  ecfg.trials = 500;
  ServerModel m = Enroller(ecfg).enroll(narrow.chip(0), rng_);
  EXPECT_THROW(db_.register_device(std::move(m)), std::invalid_argument);
}

}  // namespace
}  // namespace xpuf::puf
