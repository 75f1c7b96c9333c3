// Batch test harness — the simulated PXI + USB DAQ bench setup of Fig 2.
//
// Applies challenge lists to a chip at a programmable corner and collects
// per-PUF soft responses through the fused taps (enrollment).
//
// Scans run on the global thread pool (common/parallel.hpp). Each scan
// draws ONE base value from the tester's stream and derives a private
// per-measurement child stream keyed by the (puf, challenge) cell index, so
// scan output is bit-identical for any thread count.
//
// Every scan measures through one serial cell kernel: noise-free
// probabilities come from the linear-view batch core (one GEMM tile per
// chunk) and the binomial counters are drawn per cell from those streams.
// The per-cell stage walk it is bit-identical to lives in the test oracles
// (tests/oracles/scan_reference.hpp); see DESIGN.md "Batched evaluation
// core" for the equivalence contract.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/chip.hpp"
#include "sim/linear.hpp"

namespace xpuf::sim {

/// Per-challenge measurement of every individual PUF on a chip.
struct ChipSoftScan {
  std::vector<Challenge> challenges;
  /// soft[p][c] = soft response of PUF p on challenge c.
  std::vector<std::vector<double>> soft;
  /// stable[p][c] = the counter saw zero flips.
  std::vector<std::vector<bool>> stable;
  std::uint64_t trials = 0;
  Environment environment;
};

/// One chunk of a streaming individual-PUF scan: `block` holds the chunk's
/// challenges + Phi rows, `soft[p][i]` / `stable[p][i]` the measurements for
/// global challenge `offset + i`. All vectors keep their heap blocks across
/// next() calls, so a steady-state chunk costs zero allocations.
struct ScanChunk {
  std::size_t offset = 0;
  FeatureBlock block;
  /// soft[p][i] = soft response of PUF p on the chunk's i-th challenge.
  std::vector<std::vector<double>> soft;
  /// stable[p][i] = the counter saw zero flips (byte flags, not packed bits,
  /// so parallel chunk workers never share a word).
  std::vector<std::vector<std::uint8_t>> stable;
};

/// Chunked producer over a ChipTester scan: generates challenges, measures
/// every (PUF, challenge) cell, and hands back fixed-size ScanChunks instead
/// of whole-scan vectors, so a scan of any length runs in O(chunk) memory.
///
/// Determinism contract: a stream over `total` challenges is bit-identical
/// to the materialized sequence `random_challenges(total)` followed by
/// `scan_individual` — for ANY chunk size. Challenges replay the exact draw
/// sequence of the materialized path from a saved generator copy (the
/// tester's generator is pre-advanced past those draws at construction), and
/// every cell's measurement stream is keyed by `p * total + c` off one base
/// draw taken after the pre-roll, exactly where scan_individual takes it.
/// reset() rewinds to the first chunk and replays the identical scan — the
/// two-pass trick streaming enrollment uses instead of storing the data.
///
/// The stream borrows the chip; it must outlive the stream.
class ChipScanStream {
 public:
  std::size_t total() const { return total_; }
  std::size_t chunk_challenges() const { return chunk_; }
  std::size_t position() const { return position_; }

  /// Fills `chunk` with the next up-to-chunk_challenges() challenges and
  /// their measurements; returns false (leaving `chunk` untouched) when the
  /// scan is exhausted.
  bool next(ScanChunk& chunk);

  /// Rewinds to the first chunk; the replayed scan is bit-identical.
  void reset();

 private:
  friend class ChipTester;
  ChipScanStream(const XorPufChip& chip, const Environment& env,
                 std::uint64_t trials, std::size_t total, std::size_t chunk,
                 Rng& tester_rng);

  const XorPufChip* chip_ = nullptr;
  Environment env_;
  std::uint64_t trials_ = 0;
  std::size_t total_ = 0;
  std::size_t chunk_ = 0;
  std::size_t position_ = 0;
  Rng challenge_rng_;        ///< replays the challenge draws, chunk by chunk
  Rng challenge_rng_start_;  ///< saved copy for reset()
  std::uint64_t base_ = 0;   ///< keys every cell's measurement stream
  ChipLinearView view_;      ///< the chip's snapshot at env_
  std::vector<double> soft_lut_;
  std::vector<Challenge> challenge_buf_;
};

class ChipTester {
 public:
  /// `trials` is the per-challenge evaluation count K (paper: 100,000).
  ChipTester(Environment env, std::uint64_t trials, Rng rng);

  const Environment& environment() const { return env_; }
  void set_environment(const Environment& env) { env_ = env; }
  std::uint64_t trials() const { return trials_; }

  /// Generates `count` uniformly random challenges for a chip's stage count.
  std::vector<Challenge> random_challenges(const XorPufChip& chip, std::size_t count);

  /// Measures soft responses of every individual PUF for every challenge.
  /// Requires all enrollment fuses intact.
  ChipSoftScan scan_individual(const XorPufChip& chip,
                               const std::vector<Challenge>& challenges);
  /// Feature-block overload: callers scanning the same challenge set at
  /// several corners (the 9-corner enrollment sweeps) build the Phi block
  /// once and reuse it here — the scan never recomputes it.
  ChipSoftScan scan_individual(const XorPufChip& chip, const FeatureBlock& block);
  /// Storage-reusing variant for repeated scans (corner sweeps, reliability
  /// campaigns): writes into `scan`, whose vectors keep their heap blocks
  /// when the workload shape repeats — the per-scan allocation storm of a
  /// fresh result (one block per challenge) becomes plain copies. The
  /// written contents are identical to a fresh scan_individual result.
  void scan_individual_into(const XorPufChip& chip, const FeatureBlock& block,
                            ChipSoftScan& scan);

  /// Streaming scan over `total` freshly drawn challenges in chunks of
  /// `chunk_challenges`: bit-identical to random_challenges(total) +
  /// scan_individual, in O(chunk) memory (see ChipScanStream). Advances the
  /// tester's generator exactly as the materialized pair would.
  ChipScanStream stream_individual(const XorPufChip& chip, std::size_t total,
                                   std::size_t chunk_challenges);

 private:
  Environment env_;
  std::uint64_t trials_;
  Rng rng_;
};

}  // namespace xpuf::sim
