// In-process transports of the lockstep oracle engine (oracles/service.hpp).
//
// PipeTransport is the deterministic in-process implementation of
// net::Transport; the FaultyTransport decorator injects seeded drops,
// duplicates, reorders, truncations, and bit-flips so every protocol path
// has a hostile-network test. Fault schedules are stream-keyed per
// connection (StreamFamily): the fault pattern a connection sees is a pure
// function of (family base, connection key, per-connection frame order), so
// runs are bit-identical at any worker-thread count.
//
// Concurrency contract: a transport pair belongs to exactly one connection,
// and every connection is owned by exactly one ServiceEngine shard — all
// calls on one transport happen on that shard's lane, serially, so these
// transports need no locks.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/transport.hpp"

namespace xpuf::net {

/// Deterministic in-process FIFO pipe: frames arrive exactly once, in order.
class PipeTransport final : public Transport {
 public:
  void send(std::vector<std::uint8_t> frame) override;
  std::optional<std::vector<std::uint8_t>> receive() override;
  bool idle() const override { return queue_.empty(); }
  void tick() override {}

 private:
  std::deque<std::vector<std::uint8_t>> queue_;
};

/// Per-fault injection probabilities. At most one fault is applied per frame
/// (a single uniform draw selects the band), so the tallies partition the
/// sent count exactly.
struct FaultProfile {
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double truncate = 0.0;
  double bitflip = 0.0;
  /// Rounds a reordered frame is held before release (1..max, seeded draw).
  std::uint32_t reorder_delay_max = 3;

  double total() const { return drop + duplicate + reorder + truncate + bitflip; }

  static FaultProfile none() { return {}; }
  /// Every fault class at the same per-frame rate.
  static FaultProfile uniform(double rate) {
    FaultProfile p;
    p.drop = p.duplicate = p.reorder = p.truncate = p.bitflip = rate;
    return p;
  }
};

/// Exact per-instance fault ledger; the engine sums these to prove zero
/// accounting drift (delivered + dropped == sent + duplicated).
struct FaultTally {
  std::uint64_t sent = 0;        ///< frames handed to send()
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;  ///< extra copies created
  std::uint64_t reordered = 0;
  std::uint64_t truncated = 0;
  std::uint64_t bitflipped = 0;

  std::uint64_t faults() const {
    return dropped + duplicated + reordered + truncated + bitflipped;
  }
};

class FaultyTransport final : public Transport {
 public:
  /// `connection_key` keys this connection's private fault stream in
  /// `family`; distinct keys (connections, directions) are decorrelated.
  FaultyTransport(Transport& inner, FaultProfile profile,
                  const StreamFamily& family, std::uint64_t connection_key);

  void send(std::vector<std::uint8_t> frame) override;
  std::optional<std::vector<std::uint8_t>> receive() override;
  bool idle() const override;
  void tick() override;

  const FaultTally& tally() const { return tally_; }

 private:
  Transport* inner_;
  FaultProfile profile_;
  Rng rng_;
  FaultTally tally_;
  /// Reordered frames with their remaining hold rounds.
  std::deque<std::pair<std::uint32_t, std::vector<std::uint8_t>>> held_;
};

}  // namespace xpuf::net
