// Batched linear-view evaluation core.
//
// The paper's workload is batch-shaped — millions of challenges scanned
// across n PUFs, 9 V/T corners, and repeated trials — and the additive delay
// model makes every noise-free delay a dense linear map: delta = w . phi(c).
// This header factors that observation into three value types:
//
//  - FeatureBlock: the row-major Phi matrix of a challenge batch, built once
//    and shared across PUFs, corners, and repeated scans (Phi depends only
//    on the challenges, never on the device or environment).
//  - DeviceLinearView: one device's reduced weights + noise sigma, frozen at
//    a given (Environment, aging) state.
//  - ChipLinearView: the stacked n_pufs x (k+1) weight matrix of a chip, so
//    a whole scan tile is ONE matmul_nt followed by normal_cdf_batch.
//
// Determinism contract: the full-batch products (matmul_nt) and the
// row-range `_into` tile kernels both accumulate each output element with
// the same ascending-index dot, so batch results are bit-identical to the
// scalar linear-view evaluation at any thread count or tile size. The tile
// kernels are serial by design — they are meant to run inside parallel_for
// chunk bodies, where nested parallelism already degrades to serial.
//
// A linear view is a snapshot: it does NOT track later ArbiterPufDevice::age
// calls or environment changes. Rebuild it per (Environment, aging) state.
//
// The packed sign-flip kernel at the end of this header is the screening
// core. It never materializes Phi, resting on three exact identities of the
// additive model:
//
//  - a challenge is ceil(k / 64) 64-bit words, stage j in bit j % 64 of
//    word j / 64 (LSB-first);
//  - phi_i = (-1)^(c_i ^ ... ^ c_{k-1}), so the sign bits of Phi are a
//    suffix-XOR scan of those words, with the parity of higher words
//    carried into lower ones;
//  - phi_i * w_i is w_i with its sign bit flipped, which is exact, so
//    0.0 + (+-w_0) + ... + (+-w_{k-1}) + w_k summed in ascending order is
//    bit-identical to feature_fill followed by the ascending dot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "sim/device.hpp"

namespace xpuf::sim {

/// Writes phi(c) into a caller-provided buffer of challenge.size() + 1
/// doubles: phi_i = prod_{j >= i} (1 - 2 c_j), phi_{k+1} = 1. This is the
/// canonical parity-transform kernel; puf/transform.hpp delegates here.
void feature_fill(const Challenge& challenge, double* out);

/// Draws `count` uniformly random challenges (no dedup: with 2^32+ space,
/// collisions are negligible at paper scale and the paper samples
/// uniformly). The single shared implementation behind puf::random_challenges
/// and ChipTester::random_challenges.
std::vector<Challenge> random_challenges(std::size_t stages, std::size_t count,
                                         Rng& rng);

/// A challenge batch plus its precomputed row-major Phi matrix
/// (size() x (stages() + 1)). Build once per batch; reuse across PUFs,
/// corners, and scans — Phi is environment-independent.
class FeatureBlock {
 public:
  FeatureBlock() = default;
  explicit FeatureBlock(std::vector<Challenge> challenges);

  /// Rebuilds the block in place from a new challenge batch, reusing the
  /// existing challenge and Phi storage when capacity suffices. This is the
  /// zero-allocation refill the streaming scan producer performs once per
  /// chunk (after the first chunk warms the buffers).
  void assign(const std::vector<Challenge>& challenges);

  std::size_t size() const { return challenges_.size(); }
  bool empty() const { return challenges_.empty(); }
  /// Stage count k (0 for an empty block).
  std::size_t stages() const { return stages_; }
  /// Feature count k + 1 (0 for an empty block).
  std::size_t features() const { return empty() ? 0 : stages_ + 1; }

  const std::vector<Challenge>& challenges() const { return challenges_; }
  const Challenge& challenge(std::size_t i) const { return challenges_[i]; }
  const linalg::Matrix& phi() const { return phi_; }
  /// Row i of Phi (contiguous, features() doubles).
  const double* row(std::size_t i) const { return phi_.row(i); }

 private:
  std::vector<Challenge> challenges_;
  linalg::Matrix phi_;
  std::size_t stages_ = 0;
};

/// One device's additive-delay model frozen at an (Environment, aging)
/// state: delta(c) = weights . phi(c), flip probability
/// Phi_cdf(delta / noise_sigma). Obtain from ArbiterPufDevice::linear_view.
struct DeviceLinearView {
  linalg::Vector weights;   ///< reduced weights, length stages + 1
  double noise_sigma = 1.0; ///< arbiter thermal-noise sigma at the corner

  std::size_t features() const { return weights.size(); }

  /// Scalar evaluation from a precomputed feature row (ascending dot — the
  /// reference the batch kernels are bit-identical to).
  double delay(std::span<const double> phi) const;
  double one_probability(std::span<const double> phi) const;

  /// Batch evaluation over a block: out[i] for challenge i.
  linalg::Vector delay_differences(const FeatureBlock& block) const;
  linalg::Vector one_probabilities(const FeatureBlock& block) const;

  /// Tile kernels over block rows [begin, end), writing end - begin values
  /// into `out`. Serial; intended for parallel_for chunk bodies.
  void delay_differences_into(const FeatureBlock& block, std::size_t begin,
                              std::size_t end, double* out) const;
  void one_probabilities_into(const FeatureBlock& block, std::size_t begin,
                              std::size_t end, double* out) const;
};

/// A chip's n devices stacked into one weight matrix, so batch evaluation of
/// every (challenge, PUF) cell is a single Phi x W^T product.
class ChipLinearView {
 public:
  ChipLinearView() = default;
  explicit ChipLinearView(std::vector<DeviceLinearView> devices);

  std::size_t puf_count() const { return noise_sigmas_.size(); }
  std::size_t features() const { return weights_.cols(); }
  /// Stacked weights, puf_count() x features() row-major.
  const linalg::Matrix& weights() const { return weights_; }
  double noise_sigma(std::size_t puf_index) const;

  /// Full-batch products: row i holds challenge i, column p holds PUF p.
  /// delay_differences is one matmul_nt; one_probabilities divides each
  /// column by its noise sigma and applies normal_cdf_batch.
  linalg::Matrix delay_differences(const FeatureBlock& block) const;
  linalg::Matrix one_probabilities(const FeatureBlock& block) const;

  /// Tile kernels over block rows [begin, end): writes (end - begin) x
  /// puf_count() values row-major into `out`, bit-identical to the
  /// corresponding rows of the full-batch products. Serial by design.
  void delay_differences_into(const FeatureBlock& block, std::size_t begin,
                              std::size_t end, double* out) const;
  void one_probabilities_into(const FeatureBlock& block, std::size_t begin,
                              std::size_t end, double* out) const;

 private:
  linalg::Matrix weights_;           // puf_count x (k+1)
  linalg::Matrix weights_t_;         // (k+1) x puf_count zero-padded to a
                                     // four-lane stride, for the tile kernels
  std::vector<double> noise_sigmas_; // per-PUF sigma at the snapshot corner
};

/// 64-bit words per packed challenge of `stages` stages.
constexpr std::size_t packed_words(std::size_t stages) { return (stages + 63) / 64; }

/// Unpacks one packed challenge (packed_words(stages) words, LSB-first)
/// into one byte per stage.
void challenge_from_words(const std::uint64_t* words, std::size_t stages, Challenge& out);

/// Parity-sign scan of `n` packed challenges stored candidate-major
/// (candidate j at words + j * packed_words(stages)). Bit i of sign word w
/// is set iff phi_{64w+i} = -1; bits at or past `stages` are ignored on
/// input and cleared on output. Writes word w of candidate j to
/// signs[w * stride + j], the word-major layout sign_flip_dots reads.
void parity_signs(const std::uint64_t* words, std::size_t stages, std::size_t n,
                  std::uint64_t* signs, std::size_t stride);

/// Raw additive-model predictions of one PUF for `n` candidates given as
/// parity-sign planes (word w of candidate j at signs[w * stride + j]):
/// out[j] = 0.0 + sum_{i<k} (sign_i ? -w_i : w_i) + w_k, summed in
/// ascending i, with k = weights.size() - 1 stages. Bit-identical to
/// feature_fill + DeviceLinearView::delay. AVX2 builds run four candidates
/// per vector, one lane each, in the same per-element add order as the
/// portable loop.
void sign_flip_dots(const std::uint64_t* signs, std::size_t stride, std::size_t n,
                    std::span<const double> weights, double* out);

/// Bit of a compacted row tag that carries the running expected response.
constexpr std::uint32_t kRowBitFlag = 1u << 31;

/// One cascade step over `n` candidates: keeps candidate j iff
/// raw[j] < thr0 or raw[j] > thr1 (NaN is never kept, as in
/// ThresholdPair::classify), moving its `nw` sign words (word w at
/// signs[w * stride + j]) and its row tag rows[j] to the next free slot in
/// index order, and toggles kRowBitFlag of the tag when raw[j] > 0.5 — the
/// XOR of the PUF responses accumulates there, while the low bits hold the
/// block row (rows must stay below kRowBitFlag). Returns the number kept;
/// slots past it hold garbage. AVX2 builds take four candidates per step
/// through a movemask-indexed permutation LUT; the portable loop copies every
/// candidate and advances by the OR of the two compares. Neither branches on
/// a verdict.
std::size_t compact_stable(const double* raw, std::size_t n, double thr0, double thr1,
                           std::uint64_t* signs, std::size_t stride, std::size_t nw,
                           std::uint32_t* rows);

}  // namespace xpuf::sim
