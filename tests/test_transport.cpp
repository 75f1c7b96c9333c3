// Tests for the oracle transports (oracles/pipe_transport.hpp): pipe FIFO
// semantics, fault-band accounting, the frame conservation invariants the
// service reconciles, and stream-keyed determinism of fault schedules — the
// StreamFamily RNG-splitting pattern applied to a hostile network.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/metrics.hpp"
#include "oracles/pipe_transport.hpp"

namespace xpuf::net {
namespace {

Frame make_frame(std::uint32_t seq) {
  Frame frame;
  frame.header.type = FrameType::kAuthBegin;
  frame.header.device_id = 11;
  frame.header.session_id = 1;
  frame.header.seq = seq;
  frame.payload = {static_cast<std::uint8_t>(seq & 0xff), 0x55};
  return frame;
}

TEST(PipeTransport, DeliversInFifoOrderExactlyOnce) {
  PipeTransport pipe;
  EXPECT_TRUE(pipe.idle());
  ChannelStats tx_stats, rx_stats;
  for (std::uint32_t i = 0; i < 5; ++i)
    send_frame(pipe, make_frame(i), tx_stats);
  EXPECT_FALSE(pipe.idle());
  for (std::uint32_t i = 0; i < 5; ++i) {
    const auto frame = recv_frame(pipe, rx_stats);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->header.seq, i);
  }
  EXPECT_FALSE(recv_frame(pipe, rx_stats).has_value());
  EXPECT_TRUE(pipe.idle());
  EXPECT_EQ(tx_stats.sent, 5u);
  EXPECT_EQ(rx_stats.delivered, 5u);
  EXPECT_EQ(rx_stats.corrupt, 0u);
}

TEST(FaultyTransport, NoneProfileIsTransparent) {
  PipeTransport pipe;
  const StreamFamily family(Rng(99).fork_base());
  FaultyTransport faulty(pipe, FaultProfile::none(), family, 0);
  ChannelStats tx_stats, rx_stats;
  for (std::uint32_t i = 0; i < 20; ++i)
    send_frame(faulty, make_frame(i), tx_stats);
  for (std::uint32_t i = 0; i < 20; ++i) {
    const auto frame = recv_frame(faulty, rx_stats);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->header.seq, i);
  }
  EXPECT_TRUE(faulty.idle());
  EXPECT_EQ(faulty.tally().sent, 20u);
  EXPECT_EQ(faulty.tally().faults(), 0u);
  EXPECT_EQ(rx_stats.corrupt, 0u);
}

TEST(FaultyTransport, RejectsImpossibleProfiles) {
  PipeTransport pipe;
  const StreamFamily family(Rng(99).fork_base());
  FaultProfile over;
  over.drop = 0.5;
  over.duplicate = 0.6;
  EXPECT_THROW(FaultyTransport(pipe, over, family, 0), std::invalid_argument);
  FaultProfile bad_delay;
  bad_delay.reorder_delay_max = 0;
  EXPECT_THROW(FaultyTransport(pipe, bad_delay, family, 0),
               std::invalid_argument);
}

// Pump frames through a faulty link, draining and ticking until idle.
// Returns the receive-side stats.
ChannelStats pump(FaultyTransport& faulty, std::uint32_t frames,
                  std::vector<std::uint32_t>* delivered_seqs = nullptr) {
  ChannelStats tx_stats, rx_stats;
  for (std::uint32_t i = 0; i < frames; ++i)
    send_frame(faulty, make_frame(i), tx_stats);
  // Reordered frames are held for bounded rounds; tick until quiescent.
  for (std::uint32_t guard = 0; guard < 64 && !faulty.idle(); ++guard) {
    while (auto frame = recv_frame(faulty, rx_stats))
      if (delivered_seqs) delivered_seqs->push_back(frame->header.seq);
    faulty.tick();
  }
  while (auto frame = recv_frame(faulty, rx_stats))
    if (delivered_seqs) delivered_seqs->push_back(frame->header.seq);
  EXPECT_TRUE(faulty.idle());
  return rx_stats;
}

TEST(FaultyTransport, TalliesPartitionSentAndConserveFrames) {
  PipeTransport pipe;
  const StreamFamily family(Rng(4242).fork_base());
  FaultyTransport faulty(pipe, FaultProfile::uniform(0.05), family, 3);
  constexpr std::uint32_t kFrames = 2'000;
  const ChannelStats rx = pump(faulty, kFrames);
  const FaultTally& tally = faulty.tally();
  EXPECT_EQ(tally.sent, kFrames);
  EXPECT_GT(tally.faults(), 0u) << "5% per band over 2000 frames";
  // At most one fault per frame: the event classes partition the schedule.
  EXPECT_LE(tally.faults(), tally.sent);
  // Conservation: every frame is delivered or dropped; duplicates add one.
  EXPECT_EQ(rx.delivered + tally.dropped, tally.sent + tally.duplicated);
  // Truncation and bit-flips are the only corruption sources, and the frame
  // codec detects every one of them.
  EXPECT_EQ(rx.corrupt, tally.truncated + tally.bitflipped);
}

TEST(FaultyTransport, ReorderHoldsFramesAcrossTicksThenReleases) {
  PipeTransport pipe;
  const StreamFamily family(Rng(7).fork_base());
  FaultProfile profile;
  profile.reorder = 1.0;  // every frame is held
  profile.reorder_delay_max = 2;
  FaultyTransport faulty(pipe, profile, family, 0);
  ChannelStats tx_stats, rx_stats;
  send_frame(faulty, make_frame(0), tx_stats);
  EXPECT_FALSE(recv_frame(faulty, rx_stats).has_value())
      << "held frame must not be deliverable before its delay elapses";
  EXPECT_FALSE(faulty.idle()) << "held frames keep the link non-idle";
  faulty.tick();
  faulty.tick();
  const auto frame = recv_frame(faulty, rx_stats);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.seq, 0u);
  EXPECT_TRUE(faulty.idle());
  EXPECT_EQ(faulty.tally().reordered, 1u);
}

TEST(FaultyTransport, ScheduleIsAPureFunctionOfTheConnectionKey) {
  const StreamFamily family(Rng(1234).fork_base());
  auto run = [&](std::uint64_t key) {
    PipeTransport pipe;
    FaultyTransport faulty(pipe, FaultProfile::uniform(0.08), family, key);
    std::vector<std::uint32_t> seqs;
    pump(faulty, 500, &seqs);
    return std::make_pair(faulty.tally(), seqs);
  };
  const auto [tally_a1, seqs_a1] = run(5);
  const auto [tally_a2, seqs_a2] = run(5);
  const auto [tally_b, seqs_b] = run(6);
  // Same key: bit-identical fault schedule and delivery order.
  EXPECT_EQ(tally_a1.dropped, tally_a2.dropped);
  EXPECT_EQ(tally_a1.duplicated, tally_a2.duplicated);
  EXPECT_EQ(tally_a1.reordered, tally_a2.reordered);
  EXPECT_EQ(tally_a1.truncated, tally_a2.truncated);
  EXPECT_EQ(tally_a1.bitflipped, tally_a2.bitflipped);
  EXPECT_EQ(seqs_a1, seqs_a2);
  // Distinct keys: decorrelated streams (delivery orders differ).
  EXPECT_NE(seqs_a1, seqs_b);
}

TEST(FaultyTransport, ZeroProfileStreamPositionMatchesNonZero) {
  // The fault draw happens even at zero probabilities, so enabling faults
  // never shifts the stream another consumer would see. Observable here as:
  // a none() run and a uniform(0) run behave identically (trivially), and
  // the schedule under uniform(p) depends only on (family, key, order).
  const StreamFamily family(Rng(31).fork_base());
  PipeTransport pipe_a, pipe_b;
  FaultyTransport a(pipe_a, FaultProfile::none(), family, 9);
  FaultyTransport b(pipe_b, FaultProfile::uniform(0.0), family, 9);
  ChannelStats stats_a, stats_b;
  for (std::uint32_t i = 0; i < 50; ++i) {
    send_frame(a, make_frame(i), stats_a);
    send_frame(b, make_frame(i), stats_b);
  }
  EXPECT_EQ(a.tally().faults(), 0u);
  EXPECT_EQ(b.tally().faults(), 0u);
}

TEST(FaultyTransport, GlobalCountersTrackFaultEvents) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  PipeTransport pipe;
  const StreamFamily family(Rng(555).fork_base());
  FaultyTransport faulty(pipe, FaultProfile::uniform(0.06), family, 1);
  const ChannelStats rx = pump(faulty, 1'000);
  const FaultTally& tally = faulty.tally();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("net.frames_sent"), 1'000u);
  EXPECT_EQ(snap.counters.at("net.frames_dropped"), tally.dropped);
  EXPECT_EQ(snap.counters.at("net.frames_duplicated"), tally.duplicated);
  EXPECT_EQ(snap.counters.at("net.frames_reordered"), tally.reordered);
  EXPECT_EQ(snap.counters.at("net.frames_truncated"), tally.truncated);
  EXPECT_EQ(snap.counters.at("net.frames_bitflipped"), tally.bitflipped);
  EXPECT_EQ(snap.counters.at("net.frames_delivered"), rx.delivered);
  EXPECT_EQ(snap.counters.at("net.frames_corrupt"), rx.corrupt);
}

}  // namespace
}  // namespace xpuf::net
