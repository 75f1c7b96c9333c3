#include "oracles/pipe_transport.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace xpuf::net {

void PipeTransport::send(std::vector<std::uint8_t> frame) {
  queue_.push_back(std::move(frame));
}

std::optional<std::vector<std::uint8_t>> PipeTransport::receive() {
  if (queue_.empty()) return std::nullopt;
  std::vector<std::uint8_t> frame = std::move(queue_.front());
  queue_.pop_front();
  return frame;
}

FaultyTransport::FaultyTransport(Transport& inner, FaultProfile profile,
                                 const StreamFamily& family,
                                 std::uint64_t connection_key)
    : inner_(&inner), profile_(profile), rng_(family.stream(connection_key)) {
  XPUF_REQUIRE(profile.total() <= 1.0, "fault probabilities must sum to <= 1");
  XPUF_REQUIRE(profile.reorder_delay_max >= 1, "reorder delay must be >= 1 round");
}

void FaultyTransport::send(std::vector<std::uint8_t> frame) {
  auto& registry = MetricsRegistry::global();
  static Counter& dropped = registry.counter("net.frames_dropped");
  static Counter& duplicated = registry.counter("net.frames_duplicated");
  static Counter& reordered = registry.counter("net.frames_reordered");
  static Counter& truncated = registry.counter("net.frames_truncated");
  static Counter& bitflipped = registry.counter("net.frames_bitflipped");
  ++tally_.sent;
  // One uniform draw per frame selects the fault band, so the per-frame
  // schedule is a pure function of this connection's stream — and the draw
  // happens even when every probability is zero, keeping the stream position
  // independent of the profile.
  const double u = rng_.uniform();
  double edge = profile_.drop;
  if (u < edge) {
    ++tally_.dropped;
    dropped.add(1);
    return;
  }
  edge += profile_.duplicate;
  if (u < edge) {
    ++tally_.duplicated;
    duplicated.add(1);
    inner_->send(frame);  // copy
    inner_->send(std::move(frame));
    return;
  }
  edge += profile_.reorder;
  if (u < edge) {
    ++tally_.reordered;
    reordered.add(1);
    const std::uint32_t delay = static_cast<std::uint32_t>(
        1 + rng_.uniform_below(profile_.reorder_delay_max));
    held_.emplace_back(delay, std::move(frame));
    return;
  }
  edge += profile_.truncate;
  if (u < edge && !frame.empty()) {
    ++tally_.truncated;
    truncated.add(1);
    const std::size_t keep =
        static_cast<std::size_t>(rng_.uniform_below(frame.size()));
    frame.resize(keep);
    inner_->send(std::move(frame));
    return;
  }
  edge += profile_.bitflip;
  if (u < edge && !frame.empty()) {
    ++tally_.bitflipped;
    bitflipped.add(1);
    const std::uint64_t bit = rng_.uniform_below(frame.size() * 8);
    frame[static_cast<std::size_t>(bit / 8)] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    inner_->send(std::move(frame));
    return;
  }
  inner_->send(std::move(frame));
}

std::optional<std::vector<std::uint8_t>> FaultyTransport::receive() {
  return inner_->receive();
}

bool FaultyTransport::idle() const { return held_.empty() && inner_->idle(); }

void FaultyTransport::tick() {
  // Age the hold queue; release due frames in hold order so the release
  // sequence is deterministic.
  std::deque<std::pair<std::uint32_t, std::vector<std::uint8_t>>> still_held;
  for (auto& [rounds, frame] : held_) {
    if (rounds <= 1)
      inner_->send(std::move(frame));
    else
      still_held.emplace_back(rounds - 1, std::move(frame));
  }
  held_ = std::move(still_held);
  inner_->tick();
}

}  // namespace xpuf::net
