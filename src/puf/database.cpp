#include "puf/database.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "sim/linear.hpp"

namespace xpuf::puf {

ServerDatabase::ServerDatabase(ServerDatabase&& other) noexcept
    : config_(other.config_),
      models_(std::move(other.models_)),
      issued_(std::move(other.issued_)),
      ledger_total_(other.ledger_total_.load(std::memory_order_relaxed)),
      mem_pools_(std::move(other.mem_pools_)),
      mem_pool_undrained_(other.mem_pool_undrained_),
      mem_pool_mu_(std::move(other.mem_pool_mu_)),
      store_(std::move(other.store_)) {}

ServerDatabase& ServerDatabase::operator=(ServerDatabase&& other) noexcept {
  if (this != &other) {
    config_ = other.config_;
    models_ = std::move(other.models_);
    issued_ = std::move(other.issued_);
    ledger_total_.store(other.ledger_total_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    mem_pools_ = std::move(other.mem_pools_);
    mem_pool_undrained_ = other.mem_pool_undrained_;
    mem_pool_mu_ = std::move(other.mem_pool_mu_);
    store_ = std::move(other.store_);
  }
  return *this;
}

ServerDatabase ServerDatabase::open(const std::string& directory, DatabaseConfig config,
                                    store::StoreOptions options) {
  XPUF_TRACE_SPAN("db.open");
  ServerDatabase db(config);
  db.store_ = std::make_unique<store::EnrollmentStore>(
      store::EnrollmentStore::open(directory, options));
  return db;
}

const store::EnrollmentStore& ServerDatabase::store() const {
  XPUF_REQUIRE(store_ != nullptr, "store() on an in-memory database");
  return *store_;
}

void ServerDatabase::register_device(ServerModel model) {
  XPUF_REQUIRE(model.puf_count() >= config_.n_pufs,
               "enrolled model has fewer PUFs than the database XOR width");
  const std::size_t id = model.chip_id();
  if (store_ != nullptr) {
    store_->register_device(std::move(model));
  } else {
    XPUF_REQUIRE(!knows(id), "device already registered");
    issued_.insert_or_assign(id, store::ChallengeLedger(model.stages()));
    models_.emplace(id, std::move(model));
  }
  if (config_.pool.target > 0) {
    // Enrollment pre-screens the device's issuance pool so its first
    // authentications are pure drains. The registration path just warmed
    // the cache, so resolve_view() is a cheap cache hit here.
    const ModelView view = resolve_view(id);
    (void)refill_pool(id, view, store_ != nullptr ? store_->ledger(id) : issued_.at(id));
  }
}

void ServerDatabase::revoke_device(std::size_t chip_id) {
  if (store_ != nullptr) {
    store_->revoke_device(chip_id);
    return;
  }
  XPUF_REQUIRE(knows(chip_id), "revoking an unknown device");
  const std::uint64_t dropped = issued_.at(chip_id).size();
  models_.erase(chip_id);
  issued_.erase(chip_id);
  {
    std::lock_guard<std::mutex> lock(*mem_pool_mu_);
    if (const auto it = mem_pools_.find(chip_id); it != mem_pools_.end()) {
      mem_pool_undrained_ -= it->second.pool.size() - it->second.head;
      mem_pools_.erase(it);
    }
  }
  const std::uint64_t total =
      ledger_total_.fetch_sub(dropped, std::memory_order_relaxed) - dropped;
  static Gauge& ledger_size = MetricsRegistry::global().gauge("db.ledger_size");
  ledger_size.set(static_cast<double>(total));
}

std::shared_ptr<const ServerModel> ServerDatabase::model_snapshot(std::size_t chip_id) const {
  if (store_ != nullptr) return store_->model(chip_id);  // bounds-checked there
  const auto it = models_.find(chip_id);
  XPUF_REQUIRE(it != models_.end(), "unknown device id");
  return std::make_shared<const ServerModel>(it->second);
}

ModelView ServerDatabase::resolve_view(std::size_t chip_id) const {
  if (store_ != nullptr) return store_->model_view(chip_id);
  const auto it = models_.find(chip_id);
  XPUF_REQUIRE(it != models_.end(), "unknown device id");
  return ModelView::of(it->second);
}

store::ChallengeLedger& ServerDatabase::ledger_ref(std::size_t chip_id) {
  // Find-based on purpose: issue() must never mutate the ledger map itself,
  // so concurrent calls for DISTINCT pre-registered devices touch disjoint
  // ledgers (see the concurrency contract in database.hpp).
  if (store_ != nullptr) return store_->ledger(chip_id);
  const auto it = issued_.find(chip_id);
  XPUF_REQUIRE(it != issued_.end(), "unknown device id");
  return it->second;
}

std::uint32_t ServerDatabase::device_stages(std::size_t chip_id) const {
  if (store_ != nullptr) return store_->device_record(chip_id).stages;
  const auto it = models_.find(chip_id);
  XPUF_REQUIRE(it != models_.end(), "unknown device id");
  return static_cast<std::uint32_t>(it->second.stages());
}

StreamFamily ServerDatabase::device_family(std::size_t chip_id) const {
  // Mixed per-device base: distinct devices walk disjoint candidate streams,
  // and the whole pooled issuance history is reproducible from
  // (pool.seed, chip_id) — no caller RNG involved.
  return StreamFamily(config_.pool.seed ^
                      (0xa24baed4963ee407ull * (static_cast<std::uint64_t>(chip_id) + 1)));
}

// A device without a pool is legal — the bool return is the signal, and
// every out-param is written before a true return.
// xpuf-lint: allow(require-guard)
bool ServerDatabase::pool_peek(std::size_t chip_id, std::uint32_t& head,
                               std::uint32_t& count, std::uint64_t& cursor,
                               std::uint32_t& epoch) const {
  if (store_ != nullptr) {
    store::PoolSlot slot;
    if (!store_->pool_slot(chip_id, slot)) return false;
    head = slot.head;
    count = slot.count;
    cursor = slot.cursor;
    epoch = slot.epoch;
    return true;
  }
  std::lock_guard<std::mutex> lock(*mem_pool_mu_);
  const auto it = mem_pools_.find(chip_id);
  if (it == mem_pools_.end()) return false;
  head = it->second.head;
  count = static_cast<std::uint32_t>(it->second.pool.size());
  cursor = it->second.pool.cursor;
  epoch = it->second.pool.epoch;
  return true;
}

void ServerDatabase::pool_read(std::size_t chip_id, std::uint32_t first, std::uint32_t n,
                               std::vector<std::uint64_t>& words,
                               std::vector<std::uint8_t>& expected) const {
  if (store_ != nullptr) {
    store_->read_pool_slice(chip_id, first, n, words, expected);
    return;
  }
  std::lock_guard<std::mutex> lock(*mem_pool_mu_);
  const auto it = mem_pools_.find(chip_id);
  XPUF_REQUIRE(it != mem_pools_.end(), "device has no pool");
  const store::PoolPayload& pool = it->second.pool;
  XPUF_REQUIRE(first + n <= pool.size(), "pool slice out of range");
  const std::size_t nw = sim::packed_words(pool.stages);
  words.insert(words.end(), pool.words.begin() + static_cast<std::ptrdiff_t>(first * nw),
               pool.words.begin() + static_cast<std::ptrdiff_t>((first + n) * nw));
  expected.insert(expected.end(), pool.expected.begin() + first,
                  pool.expected.begin() + first + n);
}

void ServerDatabase::pool_set_head(std::size_t chip_id, std::uint32_t head) {
  if (store_ != nullptr) {
    store_->set_pool_head(chip_id, head);
    return;
  }
  std::lock_guard<std::mutex> lock(*mem_pool_mu_);
  const auto it = mem_pools_.find(chip_id);
  XPUF_REQUIRE(it != mem_pools_.end(), "device has no pool");
  mem_pool_undrained_ -= head - it->second.head;
  it->second.head = head;
}

void ServerDatabase::pool_write(std::size_t chip_id, store::PoolPayload pool) {
  XPUF_REQUIRE(pool.words.size() == pool.size() * sim::packed_words(pool.stages),
               "pool rows and expected bits must align");
  if (store_ != nullptr) {
    store_->record_pool(chip_id, pool);
    return;
  }
  std::lock_guard<std::mutex> lock(*mem_pool_mu_);
  MemPool& entry = mem_pools_[chip_id];
  mem_pool_undrained_ -= entry.pool.size() - entry.head;
  mem_pool_undrained_ += pool.size();
  entry.pool = std::move(pool);
  entry.head = 0;
}

std::uint64_t ServerDatabase::pool_entries_total() const {
  if (store_ != nullptr) return store_->pool_entries_total();
  std::lock_guard<std::mutex> lock(*mem_pool_mu_);
  return mem_pool_undrained_;
}

std::size_t ServerDatabase::pool_remaining(std::size_t chip_id) const {
  XPUF_REQUIRE(knows(chip_id), "pool_remaining for an unregistered device");
  std::uint32_t head = 0, count = 0, epoch = 0;
  std::uint64_t cursor = 0;
  if (!pool_peek(chip_id, head, count, cursor, epoch)) return 0;
  return count - head;
}

std::size_t ServerDatabase::refill_pool(std::size_t chip_id, const ModelView& view,
                                        const store::ChallengeLedger& ledger) {
  XPUF_TRACE_SPAN("db.pool_refill");
  XPUF_REQUIRE(config_.pool.target >= 1, "refill_pool requires pooling enabled");
  static Counter& refills = MetricsRegistry::global().counter("auth.pool_refills");
  std::uint32_t head = 0, count = 0, epoch = 0;
  std::uint64_t cursor = 0;
  const bool existed = pool_peek(chip_id, head, count, cursor, epoch);
  store::PoolPayload next;
  next.stages = static_cast<std::uint32_t>(view.stages());
  next.epoch = existed ? epoch + 1 : 1;
  const std::uint64_t start = existed ? cursor : 0;
  // Undrained leftovers carry over — screened work is never thrown away.
  if (existed && head < count) pool_read(chip_id, head, count - head, next.words, next.expected);
  const std::size_t want =
      config_.pool.target > next.size() ? config_.pool.target - next.size() : 0;
  std::size_t tried = 0;
  if (want > 0) {
    ChallengeScreener screener(view, config_.n_pufs);
    const StreamFamily family = device_family(chip_id);
    const std::size_t nw = sim::packed_words(next.stages);
    // Already-issued and already-pooled challenges (carried-over leftovers
    // included — a small challenge space repeats candidates) never enter
    // the pool; skipping them here instead of at drain time keeps the
    // drain's replay count a pure crash-recovery signal.
    store::ChallengeLedger pooled(next.stages);
    pooled.reserve(config_.pool.target);
    for (std::size_t at = 0; at < next.words.size(); at += nw) (void)pooled.insert(&next.words[at]);
    const ChallengeScreener::Sink sink = [&](const std::uint64_t* key, bool bit) {
      if (ledger.contains(key) || !pooled.insert(key)) return false;
      next.words.insert(next.words.end(), key, key + nw);
      next.expected.push_back(bit ? 1 : 0);
      return true;
    };
    const ChallengeScreener::Outcome outcome = screener.screen(
        family, start, want, config_.policy.max_selection_attempts, sink);
    record_screening(outcome.tried, outcome.accepted);
    next.cursor = outcome.next_index;
    tried = outcome.tried;
  } else {
    next.cursor = start;
  }
  pool_write(chip_id, std::move(next));
  refills.add(1);
  static Gauge& pool_size = MetricsRegistry::global().gauge("auth.pool_size");
  pool_size.set(static_cast<double>(pool_entries_total()));
  return tried;
}

void ServerDatabase::fill_live(const ModelView& view, store::ChallengeLedger& ledger,
                               ChallengeBatch& batch, std::vector<std::uint64_t>& fresh,
                               Rng& rng) {
  XPUF_REQUIRE(batch.challenges.size() < config_.policy.challenge_count,
               "fill_live called with an already-full batch");
  const std::size_t need = config_.policy.challenge_count - batch.challenges.size();
  const std::size_t stages = view.stages();
  const std::size_t nw = sim::packed_words(stages);
  ChallengeScreener screener(view, config_.n_pufs);
  const StreamFamily family(rng.fork_base());
  const ChallengeScreener::Sink sink = [&](const std::uint64_t* key, bool bit) {
    if (!ledger.insert(key)) {
      // Replay-guarded: this stable challenge was issued to the device
      // before (e.g. a reused issuance seed); count the rejection — it is
      // the chosen-challenge-attack signal the server must observe.
      ++batch.replay_rejected;
      return false;
    }
    fresh.insert(fresh.end(), key, key + nw);
    sim::challenge_from_words(key, stages, batch.challenges.emplace_back());
    batch.expected.push_back(bit);
    return true;
  };
  const ChallengeScreener::Outcome outcome = screener.screen(
      family, 0, need, config_.policy.max_selection_attempts, sink);
  batch.candidates_tried += outcome.tried;
  record_screening(outcome.tried, outcome.accepted);
  if (!outcome.filled) {
    // Nothing of this batch is sent or logged: un-remember every key it
    // put in the ledger (pool-drained ones included) before failing.
    for (std::size_t at = 0; at < fresh.size(); at += nw) (void)ledger.erase(&fresh[at]);
    throw NumericalError("challenge issuance exhausted its attempt budget");
  }
}

void ServerDatabase::finish_issue(std::size_t chip_id, std::uint32_t stages,
                                  ChallengeBatch& batch,
                                  const std::vector<std::uint64_t>& fresh) {
  XPUF_REQUIRE(batch.challenges.size() == batch.expected.size(),
               "issued rows and expected bits must align");
  auto& registry = MetricsRegistry::global();
  static Counter& replay = registry.counter("auth.replay_rejected");
  static Counter& issued = registry.counter("db.challenges_issued");
  static Gauge& ledger_size = registry.gauge("db.ledger_size");
  replay.add(batch.replay_rejected);
  issued.add(batch.challenges.size());
  if (store_ != nullptr) {
    // Acknowledgement: the challenges are in the flushed log (surviving
    // process death, not power loss) before the caller can send them
    // anywhere (the store refreshes the gauges).
    store_->record_issued(chip_id, stages, fresh);
  } else {
    const std::uint64_t added = fresh.size() / sim::packed_words(stages);
    const std::uint64_t total =
        ledger_total_.fetch_add(added, std::memory_order_relaxed) + added;
    ledger_size.set(static_cast<double>(total));
  }
}

ChallengeBatch ServerDatabase::issue_live(std::size_t chip_id, Rng& rng) {
  XPUF_TRACE_SPAN("db.issue_live");
  XPUF_REQUIRE(config_.policy.challenge_count > 0, "an authentication batch cannot be empty");
  const ModelView view = resolve_view(chip_id);
  store::ChallengeLedger& ledger = ledger_ref(chip_id);
  ChallengeBatch batch;
  std::vector<std::uint64_t> fresh;
  fresh.reserve(config_.policy.challenge_count * sim::packed_words(view.stages()));
  fill_live(view, ledger, batch, fresh, rng);
  finish_issue(chip_id, static_cast<std::uint32_t>(view.stages()), batch, fresh);
  return batch;
}

ChallengeBatch ServerDatabase::issue(std::size_t chip_id, Rng& rng) {
  XPUF_TRACE_SPAN("db.issue_batch");
  XPUF_REQUIRE(config_.policy.challenge_count > 0, "an authentication batch cannot be empty");
  auto& registry = MetricsRegistry::global();
  static Counter& requests = registry.counter("db.issue_requests");
  static Counter& pool_hits = registry.counter("auth.pool_hits");
  static Counter& pool_misses = registry.counter("auth.pool_misses");
  static Gauge& pool_size = registry.gauge("auth.pool_size");
  requests.add(1);
  if (config_.pool.target == 0) {
    pool_misses.add(1);
    return issue_live(chip_id, rng);
  }
  const std::uint32_t stages = device_stages(chip_id);
  store::ChallengeLedger& ledger = ledger_ref(chip_id);
  const std::size_t nw = sim::packed_words(stages);
  ChallengeBatch batch;
  std::vector<std::uint64_t> fresh;
  fresh.reserve(config_.policy.challenge_count * nw);
  std::vector<std::uint64_t> words;
  std::vector<std::uint8_t> expected;
  bool pool_ok = true;
  std::size_t dry_refills = 0;
  while (batch.challenges.size() < config_.policy.challenge_count) {
    std::uint32_t head = 0, count = 0, epoch = 0;
    std::uint64_t cursor = 0;
    if (!pool_peek(chip_id, head, count, cursor, epoch) || head >= count) {
      // Empty (or absent: a fleet enrolled before pooling was turned on):
      // refill in place. Two consecutive refills without a drainable entry
      // mean screening is dry — bypass to live.
      if (dry_refills++ >= 2) {
        pool_ok = false;
        break;
      }
      const ModelView view = resolve_view(chip_id);
      batch.candidates_tried += refill_pool(chip_id, view, ledger);
      continue;
    }
    dry_refills = 0;
    const auto need = static_cast<std::uint32_t>(config_.policy.challenge_count -
                                                 batch.challenges.size());
    const std::uint32_t take = std::min(count - head, need);
    words.clear();
    expected.clear();
    pool_read(chip_id, head, take, words, expected);
    for (std::uint32_t i = 0; i < take; ++i) {
      const std::uint64_t* key = &words[i * nw];
      if (!ledger.insert(key)) {
        // Only a crash-recovery re-drain reaches here: replay reset the
        // drain head, and the logged ledger screens out what was already
        // sent. Counted — it is still an issued-challenge-reuse signal.
        ++batch.replay_rejected;
        continue;
      }
      sim::challenge_from_words(key, stages, batch.challenges.emplace_back());
      batch.expected.push_back(expected[i] != 0);
      fresh.insert(fresh.end(), key, key + nw);
    }
    pool_set_head(chip_id, head + take);
  }
  if (pool_ok) {
    pool_hits.add(1);
  } else {
    pool_misses.add(1);
    const ModelView view = resolve_view(chip_id);
    fill_live(view, ledger, batch, fresh, rng);
  }
  // Low-water top-up after serving, so the next issue is a pure drain.
  if (pool_ok && pool_remaining(chip_id) < config_.pool.low_water) {
    const ModelView view = resolve_view(chip_id);
    batch.candidates_tried += refill_pool(chip_id, view, ledger);
  }
  pool_size.set(static_cast<double>(pool_entries_total()));
  finish_issue(chip_id, stages, batch, fresh);
  return batch;
}

AuthenticationOutcome ServerDatabase::verify(std::size_t chip_id,
                                             const ChallengeBatch& batch,
                                             const std::vector<bool>& responses) const {
  XPUF_REQUIRE(knows(chip_id), "unknown device id");
  // Pure policy over the batch's expected bits: no model resolution, no
  // cache traffic — the whole verification is a Hamming-distance check.
  return apply_auth_policy(batch, responses, config_.policy);
}

DatabaseAuthOutcome ServerDatabase::authenticate(const sim::XorPufChip& chip,
                                                 const sim::Environment& env, Rng& rng) {
  XPUF_TRACE_SPAN("db.authenticate");
  static Counter& requests = MetricsRegistry::global().counter("db.auth_requests");
  static Counter& unknown = MetricsRegistry::global().counter("db.unknown_device");
  requests.add(1);
  DatabaseAuthOutcome out;
  if (!knows(chip.id())) {  // unknown device: denied by default
    unknown.add(1);
    return out;
  }
  out.known_device = true;
  const ChallengeBatch batch = issue(chip.id(), rng);
  out.replay_rejected = batch.replay_rejected;
  std::vector<bool> responses;
  responses.reserve(batch.challenges.size());
  for (const auto& c : batch.challenges) responses.push_back(chip.xor_response(c, env, rng));
  out.outcome = verify(chip.id(), batch, responses);
  return out;
}

std::size_t ServerDatabase::issued_count(std::size_t chip_id) const {
  if (store_ != nullptr) return store_->ledger(chip_id).size();
  const auto it = issued_.find(chip_id);
  XPUF_REQUIRE(it != issued_.end(), "unknown device id");
  return it->second.size();
}

void ServerDatabase::save(const std::string& directory) const {
  XPUF_TRACE_SPAN("db.save");
  // Persistence belongs to the store alone: an opened database is already
  // on disk record by record, and save() is its compaction point, so it
  // only makes sense in the store's own home.
  XPUF_REQUIRE(store_ != nullptr, "save() requires a database opened with open()");
  XPUF_REQUIRE(directory == store_->dir(), "an opened database saves in place (compaction)");
  store_->compact();
  static Gauge& devices = MetricsRegistry::global().gauge("db.devices");
  devices.set(static_cast<double>(store_->device_count()));
}

}  // namespace xpuf::puf
