// Tests for the crash-safe enrollment store: the binary record codec, the
// sharded append-only log, recovery semantics (torn tails vs corruption),
// the LRU model cache and its metrics, and compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "puf/store/record.hpp"
#include "puf/store/store.hpp"
#include "sim/linear.hpp"

namespace xpuf::puf::store {
namespace {

namespace fs = std::filesystem;

/// Deterministic hand-built model: weights/thresholds derived from the id so
/// every device is distinguishable and bit-exactness is checkable.
ServerModel make_model(std::uint64_t id, std::size_t puf_count, std::size_t stages) {
  std::vector<PufEnrollment> pufs;
  for (std::size_t p = 0; p < puf_count; ++p) {
    PufEnrollment e;
    linalg::Vector w(stages + 1);
    for (std::size_t i = 0; i <= stages; ++i)
      w[i] = 0.25 * static_cast<double>(i + p + 1) + 1e-9 * static_cast<double>(id);
    e.model = ArbiterPufModel(std::move(w));
    e.thresholds.thr0 = 0.4 - 0.001 * static_cast<double>(p);
    e.thresholds.thr1 = 0.6 + 0.001 * static_cast<double>(p);
    e.train_r_squared = 0.99 - 0.01 * static_cast<double>(p);
    e.fit_time_ms = static_cast<double>(id % 97);
    pufs.push_back(std::move(e));
  }
  ServerModel m(static_cast<std::size_t>(id), std::move(pufs));
  m.set_betas(BetaFactors{0.85, 1.15});
  return m;
}

void expect_models_bit_exact(const ServerModel& a, const ServerModel& b) {
  ASSERT_EQ(a.chip_id(), b.chip_id());
  ASSERT_EQ(a.puf_count(), b.puf_count());
  ASSERT_EQ(a.stages(), b.stages());
  EXPECT_EQ(a.betas().beta0, b.betas().beta0);
  EXPECT_EQ(a.betas().beta1, b.betas().beta1);
  for (std::size_t p = 0; p < a.puf_count(); ++p) {
    EXPECT_EQ(a.puf(p).model.weights().raw(), b.puf(p).model.weights().raw());
    EXPECT_EQ(a.puf(p).thresholds.thr0, b.puf(p).thresholds.thr0);
    EXPECT_EQ(a.puf(p).thresholds.thr1, b.puf(p).thresholds.thr1);
    EXPECT_EQ(a.puf(p).train_r_squared, b.puf(p).train_r_squared);
    EXPECT_EQ(a.puf(p).fit_time_ms, b.puf(p).fit_time_ms);
  }
}

std::string unique_dir(const std::string& tag) {
  return (fs::temp_directory_path() / ("xpuf_store_" + tag + "_" +
                                       std::to_string(::getpid())))
      .string();
}

class StoreDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

// --- codec ------------------------------------------------------------------

TEST(StoreCodec, RecordRoundTripsAllOps) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  std::vector<std::uint8_t> buf;
  encode_record(buf, OpType::kRegister, 42, payload);
  encode_record(buf, OpType::kRevoke, 7, {});
  encode_record(buf, OpType::kIssue, 0xffff'ffff'ffff'fffful, payload);

  RecordView v;
  ASSERT_EQ(decode_record(buf.data(), buf.size(), 0, v), RecordStatus::kOk);
  EXPECT_EQ(v.op, OpType::kRegister);
  EXPECT_EQ(v.device_id, 42u);
  EXPECT_EQ(v.payload_len, payload.size());
  EXPECT_EQ(std::vector<std::uint8_t>(v.payload, v.payload + v.payload_len), payload);
  EXPECT_EQ(v.begin, 0u);

  ASSERT_EQ(decode_record(buf.data(), buf.size(), v.end, v), RecordStatus::kOk);
  EXPECT_EQ(v.op, OpType::kRevoke);
  EXPECT_EQ(v.device_id, 7u);
  EXPECT_EQ(v.payload_len, 0u);

  ASSERT_EQ(decode_record(buf.data(), buf.size(), v.end, v), RecordStatus::kOk);
  EXPECT_EQ(v.op, OpType::kIssue);
  EXPECT_EQ(v.device_id, 0xffff'ffff'ffff'fffful);
  EXPECT_EQ(v.end, buf.size());
}

TEST(StoreCodec, EveryPrefixOfARecordIsTruncatedNeverCorrupt) {
  std::vector<std::uint8_t> buf;
  encode_record(buf, OpType::kRegister, 99, {9, 8, 7});
  for (std::size_t len = 0; len < buf.size(); ++len) {
    RecordView v;
    EXPECT_EQ(decode_record(buf.data(), len, 0, v), RecordStatus::kTruncated)
        << "prefix of " << len << " bytes";
  }
  RecordView v;
  EXPECT_EQ(decode_record(buf.data(), buf.size(), 0, v), RecordStatus::kOk);
}

TEST(StoreCodec, EverySingleBitFlipIsDetected) {
  std::vector<std::uint8_t> clean;
  encode_record(clean, OpType::kIssue, 1234, {0xaa, 0xbb, 0xcc});
  for (std::size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> dirty = clean;
      dirty[byte] = static_cast<std::uint8_t>(dirty[byte] ^ (1u << bit));
      RecordView v;
      const RecordStatus status = decode_record(dirty.data(), dirty.size(), 0, v);
      EXPECT_NE(status, RecordStatus::kOk)
          << "bit flip at byte " << byte << " bit " << bit << " went unnoticed";
    }
  }
}

TEST(StoreCodec, OversizedLengthPrefixIsRejectedBeforeAllocation) {
  std::vector<std::uint8_t> buf;
  encode_record(buf, OpType::kRevoke, 5, {});
  // Patch payload_len (offset 12) to kMaxRecordPayloadBytes + 1.
  const std::uint32_t huge = kMaxRecordPayloadBytes + 1;
  for (std::uint32_t b = 0; b < 4; ++b)
    buf[12 + b] = static_cast<std::uint8_t>((huge >> (8 * b)) & 0xffu);
  RecordView v;
  EXPECT_EQ(decode_record(buf.data(), buf.size(), 0, v), RecordStatus::kBadLength);
}

TEST(StoreCodec, ModelPayloadRoundTripsBitExactly) {
  const ServerModel original = make_model(31337, 3, 16);
  const std::vector<std::uint8_t> payload = encode_model(original);
  EXPECT_EQ(payload.size(), model_payload_bytes(3, 16));

  std::uint32_t puf_count = 0;
  std::uint32_t stages = 0;
  ASSERT_EQ(peek_model_shape(payload.data(), static_cast<std::uint32_t>(payload.size()),
                             puf_count, stages),
            RecordStatus::kOk);
  EXPECT_EQ(puf_count, 3u);
  EXPECT_EQ(stages, 16u);

  ServerModel decoded;
  ASSERT_EQ(decode_model(payload.data(), static_cast<std::uint32_t>(payload.size()),
                         31337, decoded),
            RecordStatus::kOk);
  expect_models_bit_exact(original, decoded);
}

TEST(StoreCodec, LedgerPayloadRoundTrips) {
  const std::vector<std::uint64_t> keys = {0x0201, 0x00ff, 0x0a10};
  const std::vector<std::uint8_t> payload = encode_ledger(12, keys.data(), keys.size());
  // u32 count, u32 stages, then 2-byte rows: the low bytes of each word.
  const std::vector<std::uint8_t> expect_rows = {0x01, 0x02, 0xff, 0x00, 0x10, 0x0a};
  ASSERT_EQ(payload.size(), 8u + expect_rows.size());
  EXPECT_TRUE(std::equal(expect_rows.begin(), expect_rows.end(), payload.begin() + 8));
  std::uint32_t stages = 0;
  std::vector<std::uint64_t> out;
  ASSERT_EQ(decode_ledger(payload.data(), static_cast<std::uint32_t>(payload.size()),
                          stages, out),
            RecordStatus::kOk);
  EXPECT_EQ(stages, 12u);
  EXPECT_EQ(out, keys);
  // A row bit past the 12th stage is corruption, never a key.
  std::vector<std::uint8_t> dirty = payload;
  dirty[9] |= 0x10;
  EXPECT_EQ(decode_ledger(dirty.data(), static_cast<std::uint32_t>(dirty.size()), stages, out),
            RecordStatus::kBadPayload);
}

TEST(StoreCodec, PackedChallengeRoundTripsEveryWidth) {
  for (std::size_t bits : {1u, 7u, 8u, 9u, 63u, 64u, 65u}) {
    Challenge c(bits);
    for (std::size_t i = 0; i < bits; ++i) c[i] = static_cast<std::uint8_t>((i * 7 + 3) % 2);
    const std::string key = pack_challenge(c);
    EXPECT_EQ(key.size(), (bits + 7) / 8);
    // The row, its key words and the challenge convert losslessly.
    std::vector<std::uint64_t> words(sim::packed_words(bits));
    row_to_words(reinterpret_cast<const std::uint8_t*>(key.data()), bits, words.data());
    std::vector<std::uint64_t> direct(words.size());
    pack_words(c, direct.data());
    EXPECT_EQ(words, direct) << bits << " bits";
    std::vector<std::uint8_t> row;
    words_to_row(words.data(), bits, row);
    EXPECT_EQ(std::string(row.begin(), row.end()), key) << bits << " bits";
    Challenge back;
    sim::challenge_from_words(words.data(), bits, back);
    EXPECT_EQ(back, c) << bits << " bits";
  }
}

TEST(StoreCodec, ManifestRoundTripsAndDetectsCorruption) {
  const std::vector<std::uint8_t> bytes = encode_manifest(16);
  EXPECT_EQ(bytes.size(), kManifestBytes);
  std::uint32_t n = 0;
  ASSERT_EQ(decode_manifest(bytes.data(), bytes.size(), n), RecordStatus::kOk);
  EXPECT_EQ(n, 16u);
  std::vector<std::uint8_t> dirty = bytes;
  dirty[4] ^= 1;  // shard count field
  EXPECT_EQ(decode_manifest(dirty.data(), dirty.size(), n), RecordStatus::kBadChecksum);
  EXPECT_EQ(decode_manifest(bytes.data(), bytes.size() - 1, n), RecordStatus::kTruncated);
}

// --- store lifecycle --------------------------------------------------------

TEST_F(StoreDirTest, RegisterServeRevokeSurviveReopen) {
  StoreOptions opts;
  opts.n_shards = 4;
  {
    EnrollmentStore store = EnrollmentStore::open(dir_, opts);
    for (std::uint64_t id : {0u, 1u, 2u, 5u, 9u}) store.register_device(make_model(id, 2, 8));
    EXPECT_EQ(store.device_count(), 5u);
    std::vector<std::uint64_t> key(1);
    pack_words(Challenge{1, 0, 1, 0, 1, 0, 1, 0}, key.data());
    store.ledger(5).insert(key.data());
    store.record_issued(5, 8, key);
    store.revoke_device(2);
  }
  EnrollmentStore reopened = EnrollmentStore::open(dir_, opts);
  EXPECT_EQ(reopened.device_count(), 4u);
  EXPECT_FALSE(reopened.knows(2)) << "revoked device resurrected by replay";
  EXPECT_EQ(reopened.ledger(5).size(), 1u);
  EXPECT_EQ(reopened.issued_total(), 1u);
  expect_models_bit_exact(make_model(9, 2, 8), *reopened.model(9));
}

TEST_F(StoreDirTest, ShardRoutingMatchesDeviceIdModulo) {
  StoreOptions opts;
  opts.n_shards = 4;
  EnrollmentStore store = EnrollmentStore::open(dir_, opts);
  for (std::uint64_t id = 0; id < 8; ++id) store.register_device(make_model(id, 1, 4));
  for (std::uint64_t id = 0; id < 8; ++id)
    EXPECT_EQ(store.device_record(id).shard, id % 4);
  // Shard files are disjoint: each holds exactly its two registers.
  for (std::uint32_t k = 0; k < 4; ++k) EXPECT_GT(store.shard_size(k), 0u);
}

TEST_F(StoreDirTest, LruCacheMetricsAccountExactly) {
  auto& registry = MetricsRegistry::global();
  Counter& hits = registry.counter("db.cache_hits");
  Counter& misses = registry.counter("db.cache_misses");
  Counter& evictions = registry.counter("db.cache_evictions");
  const std::uint64_t hits0 = hits.total();
  const std::uint64_t misses0 = misses.total();
  const std::uint64_t evictions0 = evictions.total();

  StoreOptions opts;
  opts.n_shards = 1;
  opts.cache_capacity = 2;
  EnrollmentStore store = EnrollmentStore::open(dir_, opts);
  store.register_device(make_model(0, 1, 8));  // cache {0}
  store.register_device(make_model(1, 1, 8));  // cache {1, 0}
  store.register_device(make_model(2, 1, 8));  // cache {2, 1}, evicts 0
  EXPECT_EQ(evictions.total() - evictions0, 1u);
  EXPECT_EQ(store.cache_size(), 2u);
  EXPECT_EQ(store.cache_capacity(), 2u);

  expect_models_bit_exact(make_model(0, 1, 8), *store.model(0));  // miss, evicts 1
  EXPECT_EQ(misses.total() - misses0, 1u);
  EXPECT_EQ(evictions.total() - evictions0, 2u);

  auto held = store.model(1);  // miss again (was just evicted), evicts 2
  EXPECT_EQ(misses.total() - misses0, 2u);
  EXPECT_EQ(evictions.total() - evictions0, 3u);

  EXPECT_EQ(store.model(1).get(), held.get());  // hit: same cached object
  EXPECT_EQ(hits.total() - hits0, 1u);
  EXPECT_EQ(misses.total() - misses0, 2u);

  // Accounting identity: every insertion either grew the cache or evicted.
  const std::uint64_t inserts = 3 /*registers*/ + (misses.total() - misses0);
  EXPECT_EQ(inserts, store.cache_size() + (evictions.total() - evictions0));

  // The eviction-survivor contract: a shared_ptr obtained before an eviction
  // keeps serving the old object.
  expect_models_bit_exact(make_model(1, 1, 8), *held);
}

TEST_F(StoreDirTest, DuplicateRegisterAndUnknownLookupsThrow) {
  StoreOptions opts;
  opts.n_shards = 2;
  EnrollmentStore store = EnrollmentStore::open(dir_, opts);
  store.register_device(make_model(3, 1, 4));
  EXPECT_THROW(store.register_device(make_model(3, 1, 4)), std::invalid_argument);
  EXPECT_THROW(store.model(99), std::invalid_argument);
  EXPECT_THROW(store.ledger(99), std::invalid_argument);
  EXPECT_THROW(store.revoke_device(99), std::invalid_argument);
  EXPECT_THROW(store.device_record(99), std::invalid_argument);
}

TEST_F(StoreDirTest, ReopenHonoursManifestShardCountOverOptions) {
  StoreOptions opts;
  opts.n_shards = 8;
  { EnrollmentStore store = EnrollmentStore::open(dir_, opts); }
  StoreOptions other;
  other.n_shards = 3;  // ignored: the manifest wins
  EnrollmentStore reopened = EnrollmentStore::open(dir_, other);
  EXPECT_EQ(reopened.n_shards(), 8u);
}

TEST_F(StoreDirTest, CorruptManifestIsAParseError) {
  { EnrollmentStore store = EnrollmentStore::open(dir_, StoreOptions{}); }
  {
    std::ofstream out(dir_ + "/store_manifest", std::ios::binary | std::ios::trunc);
    out << "not a manifest";
  }
  EXPECT_THROW(EnrollmentStore::open(dir_, StoreOptions{}), ParseError);
}

TEST_F(StoreDirTest, MidFileBitFlipFailsLoudlyOnReplay) {
  StoreOptions opts;
  opts.n_shards = 1;
  {
    EnrollmentStore store = EnrollmentStore::open(dir_, opts);
    store.register_device(make_model(0, 1, 8));
    store.register_device(make_model(1, 1, 8));
  }
  const std::string shard = dir_ + "/shard_0.log";
  std::fstream f(shard, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(20);  // inside the first record's payload, not the tail
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(20);
  f.write(&byte, 1);
  f.close();
  EXPECT_THROW(EnrollmentStore::open(dir_, opts), ParseError)
      << "mid-file corruption must never be silently skipped";
}

TEST_F(StoreDirTest, CompactionDropsRevokedHistoryAndKeepsModelsBitExact) {
  StoreOptions opts;
  opts.n_shards = 2;
  EnrollmentStore store = EnrollmentStore::open(dir_, opts);
  for (std::uint64_t id = 0; id < 6; ++id) store.register_device(make_model(id, 2, 8));
  for (std::uint64_t id = 0; id < 6; ++id) {
    std::vector<std::uint64_t> fresh;
    for (std::uint64_t i = 0; i < 4; ++i) fresh.push_back(i + id);
    for (const auto& key : fresh) store.ledger(id).insert(&key);
    store.record_issued(id, 8, fresh);
  }
  store.revoke_device(4);
  store.revoke_device(5);
  const std::uint64_t before = store.shard_size(0) + store.shard_size(1);

  store.compact();
  const std::uint64_t after = store.shard_size(0) + store.shard_size(1);
  EXPECT_LT(after, before) << "compaction must reclaim revoked history";
  EXPECT_EQ(store.device_count(), 4u);
  EXPECT_EQ(store.issued_total(), 16u);

  // The store keeps serving post-compaction (offsets were rewritten) ...
  expect_models_bit_exact(make_model(3, 2, 8), *store.model(3));
  // ... and a fresh replay of the compacted log agrees completely.
  EnrollmentStore reopened = EnrollmentStore::open(dir_, opts);
  EXPECT_EQ(reopened.device_count(), 4u);
  EXPECT_EQ(reopened.issued_total(), 16u);
  EXPECT_FALSE(reopened.knows(4));
  EXPECT_FALSE(reopened.knows(5));
  for (std::uint64_t id = 0; id < 4; ++id) {
    expect_models_bit_exact(make_model(id, 2, 8), *reopened.model(id));
    EXPECT_EQ(reopened.ledger(id), store.ledger(id));
  }
}

TEST_F(StoreDirTest, PerShardLedgerTotalsSumToTheFleetGauge) {
  auto& registry = MetricsRegistry::global();
  StoreOptions opts;
  opts.n_shards = 2;
  EnrollmentStore store = EnrollmentStore::open(dir_, opts);
  for (std::uint64_t id = 0; id < 4; ++id) store.register_device(make_model(id, 1, 8));
  for (std::uint64_t id = 0; id < 4; ++id) {
    std::vector<std::uint64_t> fresh;
    for (std::uint64_t i = 0; i <= id; ++i) fresh.push_back(i);
    for (const auto& key : fresh) store.ledger(id).insert(&key);
    store.record_issued(id, 8, fresh);
  }
  // Devices 0,2 -> shard 0 (1 + 3 keys); devices 1,3 -> shard 1 (2 + 4 keys).
  EXPECT_EQ(store.shard_issued_total(0), 4u);
  EXPECT_EQ(store.shard_issued_total(1), 6u);
  EXPECT_EQ(store.issued_total(), 10u);
  // The gauges mirror the totals: fleet-wide plus one per shard. This is the
  // regression for the last-writer-wins db.ledger_size bug: the fleet gauge
  // holds the TOTAL, not whichever device issued last.
  EXPECT_EQ(registry.gauge("db.ledger_size").get(), 10.0);
  EXPECT_EQ(registry.gauge("db.shard_ledger_size.0").get(), 4.0);
  EXPECT_EQ(registry.gauge("db.shard_ledger_size.1").get(), 6.0);
}

// Compaction writes each ledger's ISSUE keys in ascending packed-row byte
// order — the walk of the std::set<std::string> ledger it replaced — so a
// compacted shard's bytes depend on the ledger's contents alone.
TEST_F(StoreDirTest, CompactionWritesIssueKeysInAscendingByteOrder) {
  StoreOptions opts;
  opts.n_shards = 1;
  EnrollmentStore store = EnrollmentStore::open(dir_, opts);
  const std::size_t stages[] = {13, 100};  // 2-byte rows; 2-word keys
  std::map<std::uint64_t, std::set<std::string>> oracle;
  Rng rng(77);
  for (std::uint64_t id = 0; id < 2; ++id) {
    store.register_device(make_model(id, 1, stages[id]));
    const std::size_t nw = (stages[id] + 63) / 64;
    for (int batch = 0; batch < 10; ++batch) {
      std::vector<std::uint64_t> fresh;
      for (int i = 0; i < 50; ++i) {
        Challenge c(stages[id]);
        for (auto& bit : c) bit = static_cast<std::uint8_t>(rng.next_u64() & 1u);
        const std::size_t at = fresh.size();
        fresh.resize(at + nw);
        pack_words(c, fresh.data() + at);
        if (!store.ledger(id).insert(fresh.data() + at)) {
          fresh.resize(at);
          continue;
        }
        oracle[id].insert(pack_challenge(c));
      }
      store.record_issued(id, static_cast<std::uint32_t>(stages[id]), fresh);
    }
  }
  store.compact();
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(dir_ + "/shard_0.log", std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::map<std::uint64_t, std::vector<std::string>> written;
  for (std::uint64_t offset = 0; offset < bytes.size();) {
    RecordView view;
    ASSERT_EQ(decode_record(bytes.data(), bytes.size(), offset, view), RecordStatus::kOk);
    offset = view.end;
    if (view.op != OpType::kIssue) continue;
    const std::size_t row = (stages[view.device_id] + 7) / 8;
    for (std::size_t at = 8; at < view.payload_len; at += row)
      written[view.device_id].emplace_back(reinterpret_cast<const char*>(view.payload + at), row);
  }
  for (std::uint64_t id = 0; id < 2; ++id) {
    const std::vector<std::string> walk(oracle[id].begin(), oracle[id].end());
    EXPECT_EQ(written[id], walk) << "device " << id;
    EXPECT_EQ(store.ledger(id).size(), walk.size());
  }
}

// --- truncation torture -----------------------------------------------------

/// Expected store state after a prefix of the op history.
struct ExpectedState {
  std::uint64_t offset = 0;  ///< durable high-water mark after the op
  std::map<std::uint64_t, ChallengeLedger> ledgers;  ///< known id -> keys
};

// Cuts the single-shard log at EVERY byte offset and reopens the store. Each
// cut must recover exactly the records whose acknowledged end offset fits in
// the prefix — never resurrect a revoked device, never drop an acknowledged
// ledger entry, never misread a torn tail as corruption — and count the torn
// tail under db.log_truncated.
TEST_F(StoreDirTest, TruncationAtEveryByteRecoversTheExactAcknowledgedPrefix) {
  StoreOptions opts;
  opts.n_shards = 1;
  opts.cache_capacity = 4;

  std::vector<ExpectedState> history;
  const auto snapshot = [&history](const EnrollmentStore& store) {
    ExpectedState s;
    s.offset = store.shard_size(0);
    for (const std::uint64_t id : store.device_ids()) s.ledgers[id] = store.ledger(id);
    history.push_back(std::move(s));
  };
  const auto issue = [](EnrollmentStore& store, std::uint64_t id,
                        std::initializer_list<std::uint8_t> seeds) {
    std::vector<std::uint64_t> fresh;
    for (std::uint8_t seed : seeds) {
      Challenge c(8);
      for (std::size_t i = 0; i < 8; ++i)
        c[i] = static_cast<std::uint8_t>((seed >> i) & 1u);
      pack_words(c, &fresh.emplace_back());
    }
    for (const auto& key : fresh) store.ledger(id).insert(&key);
    store.record_issued(id, 8, fresh);
  };

  {
    EnrollmentStore store = EnrollmentStore::open(dir_, opts);
    history.push_back(ExpectedState{});  // empty log
    store.register_device(make_model(0, 2, 8));
    snapshot(store);
    store.register_device(make_model(1, 2, 8));
    snapshot(store);
    issue(store, 0, {3, 5, 9});
    snapshot(store);
    issue(store, 1, {7, 11});
    snapshot(store);
    store.revoke_device(1);
    snapshot(store);
    issue(store, 0, {13, 17});
    snapshot(store);
    store.register_device(make_model(2, 2, 8));
    snapshot(store);
  }

  // Full log bytes, read once.
  std::vector<char> log_bytes;
  {
    std::ifstream in(dir_ + "/shard_0.log", std::ios::binary);
    ASSERT_TRUE(in.good());
    log_bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(log_bytes.size(), history.back().offset);
  std::set<std::uint64_t> boundaries;
  for (const auto& s : history) boundaries.insert(s.offset);

  Counter& truncations = MetricsRegistry::global().counter("db.log_truncated");
  const std::string torn_dir = unique_dir("torn");
  for (std::uint64_t cut = 0; cut <= log_bytes.size(); ++cut) {
    fs::remove_all(torn_dir);
    fs::create_directories(torn_dir);
    fs::copy_file(dir_ + "/store_manifest", torn_dir + "/store_manifest");
    {
      std::ofstream out(torn_dir + "/shard_0.log", std::ios::binary);
      out.write(log_bytes.data(), static_cast<std::streamsize>(cut));
    }

    // The last acknowledged op whose append fits inside the cut.
    const ExpectedState* expected = &history.front();
    for (const auto& s : history)
      if (s.offset <= cut) expected = &s;

    const std::uint64_t truncations_before = truncations.total();
    EnrollmentStore recovered = EnrollmentStore::open(torn_dir, opts);

    std::map<std::uint64_t, ChallengeLedger> got;
    for (const std::uint64_t id : recovered.device_ids()) got[id] = recovered.ledger(id);
    EXPECT_EQ(got, expected->ledgers) << "cut at byte " << cut;
    EXPECT_EQ(recovered.shard_size(0), expected->offset)
        << "torn tail not trimmed back to the record boundary at cut " << cut;

    const bool torn = boundaries.count(cut) == 0;
    EXPECT_EQ(truncations.total() - truncations_before, torn ? 1u : 0u)
        << "db.log_truncated must count exactly the torn tails (cut " << cut << ")";

    // Models of surviving devices decode bit-exactly from the prefix.
    for (const auto& [id, keys] : expected->ledgers)
      expect_models_bit_exact(make_model(id, 2, 8), *recovered.model(id));
  }
  fs::remove_all(torn_dir);
}

}  // namespace
}  // namespace xpuf::puf::store
