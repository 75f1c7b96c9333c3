// The serial reference walk of stable-challenge screening.
//
// One candidate at a time: draw it with ChallengeScreener::candidate_into,
// build its feature row with sim::feature_fill, take one ascending dot per
// PUF and stop at the first PUF that calls it unstable. It is the oracle
// the packed kernel in ChallengeScreener is bit-identical to, and it is
// deliberately scalar. A stable candidate is packed (store::pack_words) only
// to hand it to the sink. It lives with the test oracles, outside the
// library: tests and bench_auth_throughput use it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "puf/model_view.hpp"
#include "puf/screening.hpp"
#include "puf/store/record.hpp"
#include "sim/linear.hpp"

namespace xpuf::puf {

/// Same contract as ChallengeScreener(view, n_pufs).screen(family,
/// first_index, count, max_attempts, sink).
inline ChallengeScreener::Outcome screen_reference(const ModelView& view, std::size_t n_pufs,
                                                   const StreamFamily& family,
                                                   std::uint64_t first_index,
                                                   std::size_t count, std::size_t max_attempts,
                                                   const ChallengeScreener::Sink& sink) {
  XPUF_REQUIRE(!view.empty(), "screener needs a non-empty model view");
  XPUF_REQUIRE(n_pufs >= 1 && n_pufs <= view.puf_count(), "screener n_pufs out of range");
  XPUF_REQUIRE(count >= 1, "screening quota must be positive");
  XPUF_REQUIRE(sink != nullptr, "screening needs a sink");
  std::vector<ThresholdPair> thresholds;
  for (std::size_t p = 0; p < n_pufs; ++p) thresholds.push_back(view.adjusted_thresholds(p));
  ChallengeScreener::Outcome out;
  const std::size_t stages = view.stages();
  const std::size_t features = stages + 1;
  std::vector<double> phi(features);
  std::vector<double> raw(n_pufs);
  Challenge candidate;
  std::vector<std::uint64_t> key(sim::packed_words(stages));
  while (out.accepted < count && out.tried < max_attempts) {
    Rng rng = family.stream(first_index + out.tried);
    ChallengeScreener::candidate_into(candidate, stages, rng);
    ++out.tried;
    sim::feature_fill(candidate, phi.data());
    bool stable = true;
    for (std::size_t p = 0; p < n_pufs && stable; ++p) {
      const std::span<const double> w = view.weights(p);
      double acc = 0.0;
      for (std::size_t k = 0; k < features; ++k) acc += phi[k] * w[k];
      raw[p] = acc;
      stable = thresholds[p].classify(acc) != StableClass::kUnstable;
    }
    if (!stable) continue;
    // The early exit above never fires for a stable candidate, so every
    // raw[p] is populated here.
    ++out.stable;
    bool bit = false;
    for (std::size_t p = 0; p < n_pufs; ++p) bit ^= raw[p] > 0.5;
    store::pack_words(candidate, key.data());
    if (sink(key.data(), bit)) ++out.accepted;
  }
  out.filled = out.accepted >= count;
  out.next_index = first_index + out.tried;
  return out;
}

}  // namespace xpuf::puf
