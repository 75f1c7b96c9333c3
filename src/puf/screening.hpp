// Stable-challenge screening — the authentication hot-path core.
//
// The paper's issuance is rejection sampling: draw random challenges, keep
// those predicted stable on ALL n PUFs (acceptance ~0.800^n, ~10.7% at
// n = 10; about 1% with the deployment betas 0.9/1.1). ChallengeScreener
// runs that walk on one kernel, the packed sign-flip cascade of
// sim/linear.hpp, on the calling thread:
//
//   - a block of candidates stays packed, one 64-bit word per 64 stages; up
//     to 64 stages the word is StreamFamily::first_u64 (three splitmix
//     rounds, the same value as the stream's first draw);
//   - their parity signs come from one suffix-XOR scan per word;
//   - PUF 0 is evaluated on the whole block, the candidates it calls
//     stable are compacted (sim::compact_stable, which branches on no
//     verdict) and passed to PUF 1, and so on, so a candidate rejected
//     early costs no further dots;
//   - the sink receives each stable candidate as its packed words, masked
//     to the stage count (the ChallengeLedger key and pack_challenge row
//     layout), so the walk itself unpacks nothing.
//
// Every raw prediction is bit-identical to feature_fill + the ascending
// dot, so decisions, expected bits and every Outcome field equal the serial
// reference walk (puf/screening_reference.hpp, tests and benches only).
// The determinism contract behind that:
//
//   candidate j of a screening walk is a pure function of (family, j): its
//   challenge bits come from StreamFamily::stream(first_index + j) alone.
//
// So the block partition is invisible in the issued sequence, and a
// screening walk consumes NOTHING from the caller's RNG beyond the one
// fork_base() draw that seeded the family. The walk is resumable:
// Outcome::next_index is the index the next refill continues from (the
// pool cursor persisted in POOL records).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "puf/model_view.hpp"
#include "sim/linear.hpp"

namespace xpuf::puf {

class ChallengeScreener {
 public:
  /// Outcome of one screening walk.
  struct Outcome {
    std::size_t tried = 0;     ///< candidates examined (== stream indices consumed)
    std::size_t stable = 0;    ///< candidates predicted stable on all n PUFs
    std::size_t accepted = 0;  ///< stable candidates the sink counted toward the quota
    bool filled = false;       ///< quota reached within max_attempts
    std::uint64_t next_index = 0;  ///< resume cursor: first_index + tried
  };

  /// Receives each stable candidate in index order — its
  /// sim::packed_words(stages) challenge words (LSB-first, bits at or past
  /// the stage count zero; valid only during the call) — with its expected
  /// XOR bit; returns true to count it toward the quota (false = caller-side
  /// rejection, e.g. the replay ledger — the walk continues).
  using Sink = std::function<bool(const std::uint64_t* words, bool expected)>;

  /// Screens the first `n_pufs` PUFs of `view`; the view must outlive the
  /// screener.
  ChallengeScreener(const ModelView& view, std::size_t n_pufs);

  /// Walks candidates first_index, first_index + 1, ... until `count` were
  /// accepted by the sink or `tried` reached max_attempts.
  Outcome screen(const StreamFamily& family, std::uint64_t first_index,
                 std::size_t count, std::size_t max_attempts, const Sink& sink);

  /// The candidate generator: stage bits drawn 64 per next_u64() word
  /// (LSB-first). The screener draws the same words and keeps them packed.
  static void candidate_into(Challenge& out, std::size_t stages, Rng& rng);

 private:
  /// Runs the PUF cascade over the first `n` candidates of the block; leaves
  /// the survivors' row tags in live_ (block row ascending, expected XOR bit
  /// in sim::kRowBitFlag) and returns how many survived.
  std::size_t cascade(std::size_t n);

  const ModelView* view_;
  std::size_t n_pufs_;
  std::vector<ThresholdPair> thresholds_;  ///< beta-adjusted, derived once
  // Block storage, sized on the first block and reused: packed challenge
  // words (candidate-major), their parity-sign planes (word-major,
  // compacted in place as the cascade rejects), surviving row tags and one
  // PUF's raw predictions.
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> signs_;
  std::vector<std::uint32_t> live_;
  std::vector<double> raw_;
};

/// Selection-cost accounting shared by every screening call site (the
/// selectors, database issuance, and pool refills): bumps
/// selection.candidates_tried / selection.accepted and observes the
/// per-walk candidate count in the selection.batch_candidates histogram.
void record_screening(std::size_t tried, std::size_t accepted);

}  // namespace xpuf::puf
