#include "sim/linear.hpp"

#include <algorithm>
#include <bit>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/error.hpp"
#include "common/math.hpp"

namespace xpuf::sim {

void feature_fill(const Challenge& challenge, double* out) {
  XPUF_REQUIRE(out != nullptr, "feature_fill needs a buffer of size() + 1 doubles");
  const std::size_t k = challenge.size();
  // Suffix products: phi_k = 1 - 2 c_k, phi_i = (1 - 2 c_i) * phi_{i+1}.
  double acc = 1.0;
  out[k] = 1.0;
  for (std::size_t ii = k; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    acc *= challenge[i] ? -1.0 : 1.0;
    out[i] = acc;
  }
}

// An empty batch is a legal no-op block (empty scans are no-ops too).
std::vector<Challenge> random_challenges(std::size_t stages, std::size_t count, Rng& rng) {
  XPUF_REQUIRE(stages > 0, "challenges need at least one stage");
  std::vector<Challenge> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(random_challenge(stages, rng));
  return out;
}

// Same: an empty block is legal and yields no rows.
FeatureBlock::FeatureBlock(std::vector<Challenge> challenges)
    : challenges_(std::move(challenges)) {
  if (challenges_.empty()) return;
  stages_ = challenges_.front().size();
  XPUF_REQUIRE(stages_ > 0, "feature block of zero-stage challenges");
  phi_ = linalg::Matrix(challenges_.size(), stages_ + 1);
  for (std::size_t r = 0; r < challenges_.size(); ++r) {
    XPUF_REQUIRE(challenges_[r].size() == stages_, "mixed challenge lengths in batch");
    feature_fill(challenges_[r], phi_.row(r));
  }
}

// Same empty-block contract as the constructor.
void FeatureBlock::assign(const std::vector<Challenge>& challenges) {
  challenges_ = challenges;
  if (challenges_.empty()) {
    stages_ = 0;
    phi_.resize(0, 0);
    return;
  }
  stages_ = challenges_.front().size();
  XPUF_REQUIRE(stages_ > 0, "feature block of zero-stage challenges");
  phi_.resize(challenges_.size(), stages_ + 1);
  for (std::size_t r = 0; r < challenges_.size(); ++r) {
    XPUF_REQUIRE(challenges_[r].size() == stages_, "mixed challenge lengths in batch");
    feature_fill(challenges_[r], phi_.row(r));
  }
}

double DeviceLinearView::delay(std::span<const double> phi) const {
  XPUF_REQUIRE(phi.size() == weights.size(), "feature length mismatch");
  // linalg::dot is the ascending-order accumulation matmul_nt/matvec use per
  // output element, which is what makes batch == scalar a bit-level claim.
  return linalg::dot(weights.span(), phi);
}

double DeviceLinearView::one_probability(std::span<const double> phi) const {
  return normal_cdf(delay(phi) / noise_sigma);
}

linalg::Vector DeviceLinearView::delay_differences(const FeatureBlock& block) const {
  linalg::Vector out(block.size());
  delay_differences_into(block, 0, block.size(), out.data());
  return out;
}

linalg::Vector DeviceLinearView::one_probabilities(const FeatureBlock& block) const {
  linalg::Vector out(block.size());
  one_probabilities_into(block, 0, block.size(), out.data());
  return out;
}

// Row range is the caller's tile; an empty range writes nothing.
void DeviceLinearView::delay_differences_into(const FeatureBlock& block, std::size_t begin,
                                              std::size_t end, double* out) const {
  XPUF_REQUIRE(end <= block.size() && begin <= end, "tile range out of bounds");
  XPUF_REQUIRE(begin == end || block.features() == weights.size(),
               "feature length mismatch");
  for (std::size_t r = begin; r < end; ++r)
    out[r - begin] = delay({block.row(r), weights.size()});
}

// Same tile contract as delay_differences_into.
// xpuf-lint: allow(require-guard)
void DeviceLinearView::one_probabilities_into(const FeatureBlock& block, std::size_t begin,
                                              std::size_t end, double* out) const {
  delay_differences_into(block, begin, end, out);
  const std::size_t n = end - begin;
  for (std::size_t i = 0; i < n; ++i) out[i] /= noise_sigma;
  normal_cdf_batch({out, n}, {out, n});
}

ChipLinearView::ChipLinearView(std::vector<DeviceLinearView> devices) {
  XPUF_REQUIRE(!devices.empty(), "chip view needs at least one device");
  const std::size_t f = devices.front().features();
  weights_ = linalg::Matrix(devices.size(), f);
  // The transposed copy makes the tile kernels' inner PUF loop contiguous:
  // row i of weights_t_ holds every device's weight for feature i. Rows are
  // zero-padded to a four-lane stride so the AVX2 kernels can issue whole
  // vector loads; the padding lanes accumulate zeros and are never stored.
  weights_t_ = linalg::Matrix(f, (devices.size() + 3) / 4 * 4);
  noise_sigmas_.reserve(devices.size());
  for (std::size_t p = 0; p < devices.size(); ++p) {
    XPUF_REQUIRE(devices[p].features() == f, "mixed stage counts in chip view");
    const double* w = devices[p].weights.data();
    double* row = weights_.row(p);
    for (std::size_t i = 0; i < f; ++i) {
      row[i] = w[i];
      weights_t_(i, p) = w[i];
    }
    noise_sigmas_.push_back(devices[p].noise_sigma);
  }
}

double ChipLinearView::noise_sigma(std::size_t puf_index) const {
  XPUF_REQUIRE(puf_index < noise_sigmas_.size(), "PUF index out of range");
  return noise_sigmas_[puf_index];
}

// Empty blocks produce an empty matrix, mirroring the tile kernels.
linalg::Matrix ChipLinearView::delay_differences(const FeatureBlock& block) const {
  if (block.empty()) return linalg::Matrix(0, puf_count());
  XPUF_REQUIRE(block.features() == features(), "feature length mismatch");
  return linalg::matmul_nt(block.phi(), weights_);
}

// Same empty-block contract.
linalg::Matrix ChipLinearView::one_probabilities(const FeatureBlock& block) const {
  linalg::Matrix delays = delay_differences(block);
  for (std::size_t r = 0; r < delays.rows(); ++r) {
    double* row = delays.row(r);
    for (std::size_t p = 0; p < noise_sigmas_.size(); ++p) row[p] /= noise_sigmas_[p];
  }
  const std::size_t n = delays.rows() * delays.cols();
  std::span<double> flat(delays.row(0), n);
  normal_cdf_batch(flat, flat);
  return delays;
}

namespace {

/// Feature-outer tile kernel for a compile-time PUF count: every output
/// element still sums its w(p, i) * phi[i] terms in ascending i — identical
/// to matmul_nt's per-element order, so the result is bit-identical — but
/// the N accumulation chains are independent, live in registers, and the
/// inner loop is contiguous over the transposed weights.
template <std::size_t N>
[[gnu::noinline]] void delay_tile_fixed(const linalg::Matrix& weights_t,
                                        const FeatureBlock& block, std::size_t begin,
                                        std::size_t end, double* out) {
  const std::size_t f = weights_t.rows();
  for (std::size_t r = begin; r < end; ++r) {
    const double* phi = block.row(r);
    double acc[N] = {};
    for (std::size_t i = 0; i < f; ++i) {
      const double phi_i = phi[i];
      const double* wt = weights_t.row(i);
      for (std::size_t p = 0; p < N; ++p) acc[p] += wt[p] * phi_i;
    }
    double* orow = out + (r - begin) * N;
    for (std::size_t p = 0; p < N; ++p) orow[p] = acc[p];
  }
}

/// Runtime-width fallback, same accumulation order. `n` is the true PUF
/// count; weights_t rows may be zero-padded beyond it.
void delay_tile_generic(const linalg::Matrix& weights_t, std::size_t n,
                        const FeatureBlock& block, std::size_t begin, std::size_t end,
                        double* out) {
  const std::size_t f = weights_t.rows();
  std::vector<double> acc(n);
  for (std::size_t r = begin; r < end; ++r) {
    const double* phi = block.row(r);
    for (std::size_t p = 0; p < n; ++p) acc[p] = 0.0;
    for (std::size_t i = 0; i < f; ++i) {
      const double phi_i = phi[i];
      const double* wt = weights_t.row(i);
      for (std::size_t p = 0; p < n; ++p) acc[p] += wt[p] * phi_i;
    }
    double* orow = out + (r - begin) * n;
    for (std::size_t p = 0; p < n; ++p) orow[p] = acc[p];
  }
}

#if defined(__AVX2__)

/// Inner body of the AVX2 tile: R challenge rows x V four-wide lanes over
/// the zero-padded PUF dimension. Each output element owns one vector lane
/// and accumulates its w(p, i) * phi[i] terms serially in ascending i — the
/// exact scalar order — and vmulpd/vaddpd are per-lane IEEE operations with
/// contraction pinned off, so the result is bit-identical to the scalar
/// dot. Unrolling rows keeps R x V independent add chains in flight, which
/// is what hides the four-cycle vaddpd latency the single-dot walk eats.
template <std::size_t V, std::size_t R>
inline void avx2_rows(const double* w0, std::size_t f, std::size_t stride,
                      const double* const* phi, const double* div, double* tmp) {
  __m256d acc[R][V];
  for (std::size_t q = 0; q < R; ++q)
    for (std::size_t v = 0; v < V; ++v) acc[q][v] = _mm256_setzero_pd();
  const double* wt = w0;
  for (std::size_t i = 0; i < f; ++i, wt += stride) {
    for (std::size_t q = 0; q < R; ++q) {
      const __m256d ph = _mm256_broadcast_sd(phi[q] + i);
      for (std::size_t v = 0; v < V; ++v)
        acc[q][v] =
            _mm256_add_pd(acc[q][v], _mm256_mul_pd(_mm256_loadu_pd(wt + 4 * v), ph));
    }
  }
  // Optionally divide each lane on the way out (the noise-sigma step of
  // one_probabilities): vdivpd is the exact same single IEEE division per
  // element the scalar path performs, four lanes at a time — never a
  // reciprocal multiply.
  for (std::size_t q = 0; q < R; ++q)
    for (std::size_t v = 0; v < V; ++v) {
      __m256d a = acc[q][v];
      if (div != nullptr) a = _mm256_div_pd(a, _mm256_loadu_pd(div + 4 * v));
      _mm256_storeu_pd(tmp + (q * V + v) * 4, a);
    }
}

/// AVX2 tile kernel for PUF counts up to 4 * V. `div`, when non-null, points
/// at `stride` per-lane divisors applied to every row before the store.
template <std::size_t V>
[[gnu::noinline]] void delay_tile_avx2(const linalg::Matrix& weights_t, std::size_t n,
                                       const FeatureBlock& block, std::size_t begin,
                                       std::size_t end, double* out, const double* div) {
  const std::size_t f = weights_t.rows();
  const std::size_t stride = weights_t.cols();
  const double* w0 = weights_t.row(0);
  // Four rows per pass; V == 3 drops to two to stay within sixteen ymm regs.
  constexpr std::size_t kRows = V >= 3 ? 2 : 4;
  double tmp[kRows * V * 4];
  const double* phi[kRows];
  std::size_t r = begin;
  for (; r + kRows <= end; r += kRows) {
    for (std::size_t q = 0; q < kRows; ++q) phi[q] = block.row(r + q);
    avx2_rows<V, kRows>(w0, f, stride, phi, div, tmp);
    double* orow = out + (r - begin) * n;
    for (std::size_t q = 0; q < kRows; ++q)
      for (std::size_t p = 0; p < n; ++p) orow[q * n + p] = tmp[q * V * 4 + p];
  }
  for (; r < end; ++r) {
    phi[0] = block.row(r);
    avx2_rows<V, 1>(w0, f, stride, phi, div, tmp);
    double* orow = out + (r - begin) * n;
    for (std::size_t p = 0; p < n; ++p) orow[p] = tmp[p];
  }
}

/// Dispatches the AVX2 tile for the supported widths; returns false for
/// widths the portable kernels must handle.
bool avx2_dispatch(const linalg::Matrix& weights_t, std::size_t n,
                   const FeatureBlock& block, std::size_t begin, std::size_t end,
                   double* out, const double* div) {
  if (n < 1 || n > 12) return false;
  switch ((n + 3) / 4) {
    case 1: delay_tile_avx2<1>(weights_t, n, block, begin, end, out, div); return true;
    case 2: delay_tile_avx2<2>(weights_t, n, block, begin, end, out, div); return true;
    default: delay_tile_avx2<3>(weights_t, n, block, begin, end, out, div); return true;
  }
}

#endif  // __AVX2__

}  // namespace

// Tile contract as in DeviceLinearView.
void ChipLinearView::delay_differences_into(const FeatureBlock& block, std::size_t begin,
                                            std::size_t end, double* out) const {
  XPUF_REQUIRE(end <= block.size() && begin <= end, "tile range out of bounds");
  XPUF_REQUIRE(begin == end || block.features() == features(), "feature length mismatch");
  // Dispatch to a register-blocked kernel for the paper's XOR widths; every
  // branch computes the exact same IEEE operation sequence per element.
  const std::size_t n = puf_count();
#if defined(__AVX2__)
  if (avx2_dispatch(weights_t_, n, block, begin, end, out, nullptr)) return;
#endif
  switch (n) {
    case 1: delay_tile_fixed<1>(weights_t_, block, begin, end, out); break;
    case 2: delay_tile_fixed<2>(weights_t_, block, begin, end, out); break;
    case 3: delay_tile_fixed<3>(weights_t_, block, begin, end, out); break;
    case 4: delay_tile_fixed<4>(weights_t_, block, begin, end, out); break;
    case 5: delay_tile_fixed<5>(weights_t_, block, begin, end, out); break;
    case 6: delay_tile_fixed<6>(weights_t_, block, begin, end, out); break;
    case 7: delay_tile_fixed<7>(weights_t_, block, begin, end, out); break;
    case 8: delay_tile_fixed<8>(weights_t_, block, begin, end, out); break;
    case 10: delay_tile_fixed<10>(weights_t_, block, begin, end, out); break;
    default: delay_tile_generic(weights_t_, n, block, begin, end, out); break;
  }
}

// Same tile contract.
void ChipLinearView::one_probabilities_into(const FeatureBlock& block, std::size_t begin,
                                            std::size_t end, double* out) const {
  XPUF_REQUIRE(end <= block.size() && begin <= end, "tile range out of bounds");
  XPUF_REQUIRE(begin == end || block.features() == features(), "feature length mismatch");
  const std::size_t n = puf_count();
  const std::size_t total = (end - begin) * n;
#if defined(__AVX2__)
  // Fused path: the sigma division rides the tile's store (one pass over the
  // data instead of two), with padding lanes dividing by 1.0.
  if (n >= 1 && n <= 12) {
    double sig[12 + 3] = {};
    const std::size_t stride = weights_t_.cols();
    for (std::size_t i = 0; i < stride; ++i) sig[i] = i < n ? noise_sigmas_[i] : 1.0;
    if (avx2_dispatch(weights_t_, n, block, begin, end, out, sig)) {
      normal_cdf_batch({out, total}, {out, total});
      return;
    }
  }
#endif
  delay_differences_into(block, begin, end, out);
  for (std::size_t r = 0; r < end - begin; ++r)
    for (std::size_t p = 0; p < n; ++p) out[r * n + p] /= noise_sigmas_[p];
  normal_cdf_batch({out, total}, {out, total});
}

void challenge_from_words(const std::uint64_t* words, std::size_t stages, Challenge& out) {
  XPUF_REQUIRE(stages >= 1, "a challenge needs at least one stage");
  out.resize(stages);
  for (std::size_t j = 0; j < stages; ++j)
    out[j] = static_cast<std::uint8_t>((words[j / 64] >> (j % 64)) & 1u);
}

void parity_signs(const std::uint64_t* words, std::size_t stages, std::size_t n,
                  std::uint64_t* signs, std::size_t stride) {
  XPUF_REQUIRE(stages >= 1, "a challenge needs at least one stage");
  XPUF_REQUIRE(stride >= n, "sign planes narrower than the candidate count");
  const std::size_t nw = packed_words(stages);
  const std::size_t top_bits = stages - 64 * (nw - 1);
  const std::uint64_t top_mask = top_bits == 64 ? ~0ull : (1ull << top_bits) - 1;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t* c = words + j * nw;
    // Scan from the top word down; `carry` is the parity of every stage
    // above the current word, which flips all of its signs.
    std::uint64_t carry = 0;
    for (std::size_t w = nw; w-- > 0;) {
      const std::uint64_t mask = w + 1 == nw ? top_mask : ~0ull;
      std::uint64_t s = c[w] & mask;
      s ^= s >> 1;
      s ^= s >> 2;
      s ^= s >> 4;
      s ^= s >> 8;
      s ^= s >> 16;
      s ^= s >> 32;
      s ^= mask & (0 - carry);
      signs[w * stride + j] = s;
      carry = s & 1u;
    }
  }
}

namespace {

/// Portable sign-flip dots over candidates [begin, end).
void sign_flip_dots_portable(const std::uint64_t* signs, std::size_t stride,
                             std::size_t begin, std::size_t end, const double* w,
                             std::size_t stages, double* out) {
  for (std::size_t j = begin; j < end; ++j) {
    double acc = 0.0;
    for (std::size_t base = 0; base < stages; base += 64) {
      std::uint64_t s = signs[(base / 64) * stride + j];
      const std::size_t bits = std::min<std::size_t>(64, stages - base);
      for (std::size_t i = 0; i < bits; ++i, s >>= 1)
        acc += std::bit_cast<double>(std::bit_cast<std::uint64_t>(w[base + i]) ^ (s << 63));
    }
    out[j] = acc + w[stages];
  }
}

#if defined(__AVX2__)

/// G four-lane groups of candidates starting at j: lane l of group g holds
/// candidate j + 4g + l, whose sign word shifts right one stage at a time
/// so its current bit lands in the lane's sign bit. vxorpd flips exactly
/// that bit and vaddpd is one IEEE add per lane, so every lane repeats the
/// portable loop's operation sequence; G independent add chains hide the
/// add latency.
template <std::size_t G>
inline void sign_flip_groups(const std::uint64_t* signs, std::size_t stride, std::size_t j,
                             const double* w, std::size_t stages, double* out) {
  __m256d acc[G];
  for (std::size_t g = 0; g < G; ++g) acc[g] = _mm256_setzero_pd();
  for (std::size_t base = 0; base < stages; base += 64) {
    const std::uint64_t* plane = signs + (base / 64) * stride + j;
    __m256i s[G];
    for (std::size_t g = 0; g < G; ++g)
      s[g] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(plane + 4 * g));
    const std::size_t bits = std::min<std::size_t>(64, stages - base);
    const double* wb = w + base;
    for (std::size_t i = 0; i < bits; ++i) {
      const __m256d wi = _mm256_broadcast_sd(wb + i);
      for (std::size_t g = 0; g < G; ++g) {
        const __m256d sign = _mm256_castsi256_pd(_mm256_slli_epi64(s[g], 63));
        acc[g] = _mm256_add_pd(acc[g], _mm256_xor_pd(wi, sign));
        s[g] = _mm256_srli_epi64(s[g], 1);
      }
    }
  }
  const __m256d bias = _mm256_broadcast_sd(w + stages);
  for (std::size_t g = 0; g < G; ++g)
    _mm256_storeu_pd(out + j + 4 * g, _mm256_add_pd(acc[g], bias));
}

#endif  // __AVX2__

}  // namespace

void sign_flip_dots(const std::uint64_t* signs, std::size_t stride, std::size_t n,
                    std::span<const double> weights, double* out) {
  XPUF_REQUIRE(weights.size() >= 2, "sign_flip_dots needs stages + 1 >= 2 weights");
  XPUF_REQUIRE(stride >= n, "sign planes narrower than the candidate count");
  const std::size_t stages = weights.size() - 1;
  const double* w = weights.data();
  std::size_t j = 0;
#if defined(__AVX2__)
  for (; j + 16 <= n; j += 16) sign_flip_groups<4>(signs, stride, j, w, stages, out);
  for (; j + 4 <= n; j += 4) sign_flip_groups<1>(signs, stride, j, w, stages, out);
#endif
  sign_flip_dots_portable(signs, stride, j, n, w, stages, out);
}

namespace {

/// Portable compaction of candidates [begin, n) into slots from `kept`.
std::size_t compact_stable_portable(const double* raw, std::size_t begin, std::size_t n,
                                    double thr0, double thr1, std::uint64_t* signs,
                                    std::size_t stride, std::size_t nw, std::uint32_t* rows,
                                    std::size_t kept) {
  // Every candidate is copied to slot `kept` (kept <= j, so nothing unread is
  // overwritten) and only a kept one advances it. The bitwise OR evaluates
  // both compares, so no verdict becomes a branch.
  for (std::size_t j = begin; j < n; ++j) {
    const double r = raw[j];
    for (std::size_t w = 0; w < nw; ++w) signs[w * stride + kept] = signs[w * stride + j];
    rows[kept] = rows[j] ^ (static_cast<std::uint32_t>(r > 0.5) << 31);
    kept += static_cast<std::size_t>((r < thr0) | (r > thr1));
  }
  return kept;
}

#if defined(__AVX2__)

/// Entry m of each table gathers the lanes set in the 4-bit keep mask m to
/// the front, in lane order: position l names the source lane of output
/// lane l (unused outputs read lane 0). `words` indexes the 32-bit halves
/// of four 64-bit sign words, `rows` four 32-bit row tags.
struct CompactLut {
  alignas(32) std::int32_t words[16][8];
  alignas(16) std::int32_t rows[16][4];
};

constexpr CompactLut make_compact_lut() {
  CompactLut lut{};
  for (int m = 0; m < 16; ++m) {
    int out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if (((m >> lane) & 1) == 0) continue;
      lut.words[m][2 * out] = 2 * lane;
      lut.words[m][2 * out + 1] = 2 * lane + 1;
      lut.rows[m][out] = lane;
      ++out;
    }
  }
  return lut;
}

constexpr CompactLut kCompactLut = make_compact_lut();

#endif  // __AVX2__

}  // namespace

std::size_t compact_stable(const double* raw, std::size_t n, double thr0, double thr1,
                           std::uint64_t* signs, std::size_t stride, std::size_t nw,
                           std::uint32_t* rows) {
  XPUF_REQUIRE(nw >= 1, "compact_stable needs at least one sign plane");
  XPUF_REQUIRE(stride >= n, "sign planes narrower than the candidate count");
  std::size_t kept = 0;
  std::size_t j = 0;
#if defined(__AVX2__)
  // Four candidates per step. Each store writes four lanes at `kept` <= j,
  // all of them slots already loaded, and the kept prefix is exact; the
  // ordered-quiet compares are false on NaN, like classify's < and >.
  const __m256d lo = _mm256_set1_pd(thr0);
  const __m256d hi = _mm256_set1_pd(thr1);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256i pick_high = _mm256_setr_epi32(1, 3, 5, 7, 1, 3, 5, 7);
  const __m128i flag = _mm_set1_epi32(static_cast<int>(kRowBitFlag));
  for (; j + 4 <= n; j += 4) {
    const __m256d r = _mm256_loadu_pd(raw + j);
    const __m256d keep =
        _mm256_or_pd(_mm256_cmp_pd(r, lo, _CMP_LT_OQ), _mm256_cmp_pd(r, hi, _CMP_GT_OQ));
    const int m = _mm256_movemask_pd(keep);
    const __m256i word_perm =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kCompactLut.words[m]));
    for (std::size_t w = 0; w < nw; ++w) {
      std::uint64_t* plane = signs + w * stride;
      const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(plane + j));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(plane + kept),
                          _mm256_permutevar8x32_epi32(s, word_perm));
    }
    // The one-bit masks of the four 64-bit compares, narrowed to 32-bit lanes.
    const __m128i one = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
        _mm256_castpd_si256(_mm256_cmp_pd(r, half, _CMP_GT_OQ)), pick_high));
    const __m128i tags = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + j)), _mm_and_si128(one, flag));
    const __m128i row_perm =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kCompactLut.rows[m]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(rows + kept),
                     _mm_castps_si128(_mm_permutevar_ps(_mm_castsi128_ps(tags), row_perm)));
    kept += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(m)));
  }
#endif
  return compact_stable_portable(raw, j, n, thr0, thr1, signs, stride, nw, rows, kept);
}

}  // namespace xpuf::sim
