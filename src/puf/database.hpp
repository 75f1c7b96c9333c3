// Multi-device server database and authentication front end.
//
// The paper's server stores per-chip delay parameters and thresholds "in
// the server database" and runs the Fig 7 flow per authentication request.
// This module is the deployment-shaped wrapper around those pieces: a
// registry of enrolled chips, per-device authentication with the zero-HD
// policy, and challenge-replay protection (a challenge is never reused for a
// device — otherwise an eavesdropper could replay recorded responses).
//
// Two ways to construct one share the same serving API:
//
//   in-memory (the constructor): an ephemeral serving registry — models,
//   ledgers and pools live in maps and die with the object. It never
//   touches disk; tests, benches and the net/ service engines use it.
//
//   persistent (open()): the database fronts a store::EnrollmentStore, the
//   only path by which a registry reaches or leaves disk. Every
//   register/revoke/issue is appended to a sharded crc'd op log and
//   flushed before the call returns — it survives process death, not power
//   loss (fflush, no fsync; ROADMAP item 5). Ledgers stay memory-resident
//   per shard, and model weights are served through a capacity-bounded LRU
//   cache (db.cache_hits/db.cache_misses/db.cache_evictions), so
//   authentication over a million-device fleet runs in bounded memory.
//   Reopening replays the log; save() compacts it in place.
//
// Concurrency contract: issue(), verify(), authenticate() and the const
// accessors are safe to call concurrently for DISTINCT pre-registered
// devices — they never mutate the registry maps themselves, only the
// per-device ledger the caller's device owns (std::map lookups tolerate
// concurrent readers, and disjoint mapped values may be mutated in
// parallel; the store locks its shared cache and shard files internally).
// register_device(), revoke_device() and save() mutate the maps and require
// exclusive access; the net/ AsyncServiceEngine satisfies this by giving
// each shard its own ServerDatabase and serving every call from its single
// event-loop thread (the lockstep test oracle, tests/oracles/service.hpp,
// keeps all calls on the owning shard lane). tests/test_observability.cpp
// exercises the concurrent half of the contract under TSan.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "puf/authentication.hpp"
#include "puf/screening.hpp"
#include "puf/store/store.hpp"

namespace xpuf::puf {

/// Per-device pre-screened stable-challenge pools — the issuance hot path.
/// With pooling on, registration (and a low-water refill) screens `target`
/// predicted-stable challenges per device through the packed screener and
/// persists them (opened: a POOL record in the store's log; in-memory: a
/// registry entry), so a steady-state issue() drains O(challenge_count)
/// entries instead of rejection-sampling ~challenge_count / 0.800^n live
/// candidates. Pool candidates come from a per-device StreamFamily keyed by
/// `seed ^ f(device_id)` with a persisted resume cursor, so the pooled
/// challenge sequence is a pure function of (seed, device, drain history) —
/// crash + replay re-drains the same prefix and the replay ledger screens
/// out what was already issued.
struct PoolPolicy {
  std::size_t target = 0;     ///< pool entries per device; 0 disables pooling
  std::size_t low_water = 8;  ///< refill when undrained entries drop below this
  std::uint64_t seed = 0x706f6f6c73656564ull;  ///< pool stream family base
};

struct DatabaseConfig {
  std::size_t n_pufs = 10;  ///< XOR width used for every device
  AuthenticationPolicy policy;
  PoolPolicy pool;  ///< issuance pools (disabled by default)
};

/// Result of a database-level authentication request.
struct DatabaseAuthOutcome {
  bool known_device = false;
  AuthenticationOutcome outcome;
  std::size_t replay_rejected = 0;  ///< candidates dropped by replay guard
};

class ServerDatabase {
 public:
  explicit ServerDatabase(DatabaseConfig config) : config_(config) {}

  ServerDatabase(ServerDatabase&& other) noexcept;
  ServerDatabase& operator=(ServerDatabase&& other) noexcept;

  /// Opens (creating if needed) a store-backed database at `directory`:
  /// sharded op log + LRU-bounded model serving.
  static ServerDatabase open(const std::string& directory, DatabaseConfig config,
                             store::StoreOptions options = {});

  /// The underlying store of an opened database (introspection: shard
  /// totals, cache occupancy, compaction offsets).
  const store::EnrollmentStore& store() const;

  const DatabaseConfig& config() const { return config_; }
  std::size_t device_count() const {
    return store_ ? store_->device_count() : models_.size();
  }
  bool knows(std::size_t chip_id) const {
    return store_ ? store_->knows(chip_id) : models_.count(chip_id) != 0;
  }

  /// Registers an enrolled chip; rejects duplicate ids and width mismatches.
  void register_device(ServerModel model);

  /// Removes a device and its replay history.
  void revoke_device(std::size_t chip_id);

  /// Model access. Opened: the cached (or freshly decoded) model, kept alive
  /// by the shared_ptr across evictions. In-memory: a copy — intended for
  /// tests and tooling, not hot paths.
  std::shared_ptr<const ServerModel> model_snapshot(std::size_t chip_id) const;

  /// Issues a fresh stable-challenge batch for a device, excluding every
  /// challenge the server has ever sent to it (replay protection). The
  /// issued challenges are recorded immediately. With pooling enabled the
  /// batch drains the device's pre-screened pool (auth.pool_hits) and only
  /// falls back to live screening when the pool cannot be refilled
  /// (auth.pool_misses); `rng` is consumed only on that fallback, so the
  /// pooled sequence is reproducible from the pool seed alone.
  ChallengeBatch issue(std::size_t chip_id, Rng& rng);

  /// The live-screening issuance path, pool-bypassing by construction:
  /// screens candidates from a stream forked off `rng` (exactly one
  /// fork_base() draw) against the device's model. This is issue()'s
  /// fallback and the reference side of the pooled-vs-live bench A/B.
  ChallengeBatch issue_live(std::size_t chip_id, Rng& rng);

  /// Undrained pre-screened challenges currently pooled for a device
  /// (0 when it has no pool).
  std::size_t pool_remaining(std::size_t chip_id) const;

  /// Verifies responses against the batch the caller passes back — pure
  /// policy over the batch's expected bits (apply_auth_policy); no model is
  /// resolved, so verification never touches the cache or the log.
  AuthenticationOutcome verify(std::size_t chip_id, const ChallengeBatch& batch,
                               const std::vector<bool>& responses) const;

  /// Full round trip against a physical chip.
  DatabaseAuthOutcome authenticate(const sim::XorPufChip& chip,
                                   const sim::Environment& env, Rng& rng);

  /// Challenges ever issued to a device.
  std::size_t issued_count(std::size_t chip_id) const;

  /// Compacts the store of an opened database in place (`directory` must be
  /// the store's own directory). An in-memory database has nothing on disk
  /// to save: calling this on one is a precondition failure.
  void save(const std::string& directory) const;

 private:
  /// In-memory pool state (an opened database keeps pools in the store
  /// instead). Pools are a rebuildable cache, not registry state.
  struct MemPool {
    store::PoolPayload pool;
    std::uint32_t head = 0;
  };

  /// Model access for screening: zero-copy mapped view, cached model, or
  /// borrowed registry reference.
  ModelView resolve_view(std::size_t chip_id) const;
  store::ChallengeLedger& ledger_ref(std::size_t chip_id);
  std::uint32_t device_stages(std::size_t chip_id) const;
  /// The device's pool candidate stream family — pure function of
  /// (config_.pool.seed, chip_id).
  StreamFamily device_family(std::size_t chip_id) const;

  // Pool state accessors spanning both serving modes. All are safe
  // concurrently for distinct devices (store pool mutex / mem_pool_mu_).
  bool pool_peek(std::size_t chip_id, std::uint32_t& head, std::uint32_t& count,
                 std::uint64_t& cursor, std::uint32_t& epoch) const;
  /// Appends pool entries [first, first + n) as packed challenge words.
  void pool_read(std::size_t chip_id, std::uint32_t first, std::uint32_t n,
                 std::vector<std::uint64_t>& words,
                 std::vector<std::uint8_t>& expected) const;
  void pool_set_head(std::size_t chip_id, std::uint32_t head);
  void pool_write(std::size_t chip_id, store::PoolPayload pool);
  /// Fleet-wide undrained pool entries (behind the auth.pool_size gauge).
  std::uint64_t pool_entries_total() const;

  /// (Re)builds the device's pool: carries over undrained entries, screens
  /// fresh candidates from the persisted cursor, persists the result with
  /// head = 0 and a bumped epoch. Returns candidates tried (the caller adds
  /// it to the batch's accounting).
  std::size_t refill_pool(std::size_t chip_id, const ModelView& view,
                          const store::ChallengeLedger& ledger);
  /// Completes `batch` to challenge_count via live screening (the shared
  /// kernel of issue_live and the pool-bypass fallback). `fresh` collects
  /// the packed words of every challenge the batch added to the ledger.
  /// When the attempt budget runs out it erases every key of `fresh` from
  /// the ledger, then throws NumericalError.
  void fill_live(const ModelView& view, store::ChallengeLedger& ledger,
                 ChallengeBatch& batch, std::vector<std::uint64_t>& fresh, Rng& rng);
  /// Common issue() epilogue: replay/issued metrics + logged ledger append.
  void finish_issue(std::size_t chip_id, std::uint32_t stages, ChallengeBatch& batch,
                    const std::vector<std::uint64_t>& fresh);

  DatabaseConfig config_;
  std::map<std::size_t, ServerModel> models_;
  /// Replay ledger per device: issued challenges as packed challenge words
  /// in a flat table (store::ChallengeLedger).
  std::map<std::size_t, store::ChallengeLedger> issued_;
  /// Fleet-wide issued-challenge count behind the db.ledger_size gauge
  /// (in-memory mode); atomic because concurrent issue() calls for distinct
  /// devices both retire into it.
  std::atomic<std::uint64_t> ledger_total_{0};
  std::map<std::size_t, MemPool> mem_pools_;
  /// Fleet-wide undrained entries over mem_pools_, maintained incrementally
  /// (same O(1) gauge-refresh contract as the store's counter). Guarded by
  /// mem_pool_mu_.
  std::uint64_t mem_pool_undrained_ = 0;
  /// Guards mem_pools_ (lookup and lazy insertion under concurrent issue).
  std::unique_ptr<std::mutex> mem_pool_mu_ = std::make_unique<std::mutex>();
  std::unique_ptr<store::EnrollmentStore> store_;
};

}  // namespace xpuf::puf
