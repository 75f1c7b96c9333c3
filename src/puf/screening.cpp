#include "puf/screening.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace xpuf::puf {

namespace {

/// Most candidates screened per block. Any value yields the identical
/// issued sequence; it only trades per-block overhead against candidates
/// evaluated past the one that fills the quota.
constexpr std::size_t kBlock = 512;
static_assert(kBlock <= sim::kRowBitFlag, "block rows must leave the row-tag flag bit free");

}  // namespace

// Pure accounting: every (tried, accepted) pair is legal, including zeros.
// xpuf-lint: allow(require-guard)
void record_screening(std::size_t tried, std::size_t accepted) {
  auto& registry = MetricsRegistry::global();
  static Counter& tried_counter = registry.counter("selection.candidates_tried");
  static Counter& accepted_counter = registry.counter("selection.accepted");
  static Histogram& per_batch = registry.histogram(
      "selection.batch_candidates", {10.0, 100.0, 1'000.0, 10'000.0, 100'000.0, 1'000'000.0});
  tried_counter.add(tried);
  accepted_counter.add(accepted);
  per_batch.observe(static_cast<double>(tried));
}

ChallengeScreener::ChallengeScreener(const ModelView& view, std::size_t n_pufs)
    : view_(&view), n_pufs_(n_pufs) {
  XPUF_REQUIRE(!view.empty(), "screener needs a non-empty model view");
  XPUF_REQUIRE(n_pufs >= 1 && n_pufs <= view.puf_count(), "screener n_pufs out of range");
  thresholds_.reserve(n_pufs);
  for (std::size_t p = 0; p < n_pufs; ++p) thresholds_.push_back(view.adjusted_thresholds(p));
}

void ChallengeScreener::candidate_into(Challenge& out, std::size_t stages, Rng& rng) {
  XPUF_REQUIRE(stages >= 1, "a challenge needs at least one stage");
  out.resize(stages);
  for (std::size_t base = 0; base < stages; base += 64) {
    const std::uint64_t word = rng.next_u64();
    const std::size_t bits = std::min<std::size_t>(64, stages - base);
    for (std::size_t j = 0; j < bits; ++j)
      out[base + j] = static_cast<std::uint8_t>((word >> j) & 1u);
  }
}

std::size_t ChallengeScreener::cascade(std::size_t n) {
  XPUF_REQUIRE(n <= kBlock, "cascade block larger than the block buffers");
  const std::size_t stages = view_->stages();
  const std::size_t nw = sim::packed_words(stages);
  sim::parity_signs(words_.data(), stages, n, signs_.data(), kBlock);
  for (std::size_t j = 0; j < n; ++j) live_[j] = static_cast<std::uint32_t>(j);
  for (std::size_t p = 0; p < n_pufs_ && n > 0; ++p) {
    sim::sign_flip_dots(signs_.data(), kBlock, n, view_->weights(p), raw_.data());
    n = sim::compact_stable(raw_.data(), n, thresholds_[p].thr0, thresholds_[p].thr1,
                            signs_.data(), kBlock, nw, live_.data());
  }
  return n;
}

ChallengeScreener::Outcome ChallengeScreener::screen(const StreamFamily& family,
                                                     std::uint64_t first_index,
                                                     std::size_t count,
                                                     std::size_t max_attempts,
                                                     const Sink& sink) {
  XPUF_REQUIRE(count >= 1, "screening quota must be positive");
  XPUF_REQUIRE(sink != nullptr, "screening needs a sink");
  const std::size_t stages = view_->stages();
  const std::size_t nw = sim::packed_words(stages);
  words_.resize(kBlock * nw);
  signs_.resize(kBlock * nw);
  live_.resize(kBlock);
  raw_.resize(kBlock);
  Outcome out;
  // Geometric block ramp: start near the demand of a small quota, grow to
  // kBlock. Candidate j's bits depend only on its stream index, so the
  // partition is invisible in the issued sequence.
  std::size_t ramp = std::min(kBlock, std::max<std::size_t>(64, 2 * count));
  const std::size_t tail = stages % 64;
  const std::uint64_t tail_mask = tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
  while (out.accepted < count && out.tried < max_attempts) {
    const std::size_t want = std::min(ramp, max_attempts - out.tried);
    ramp = std::min(kBlock, ramp * 2);
    const std::uint64_t block_first = first_index + out.tried;
    if (nw == 1) {
      for (std::size_t i = 0; i < want; ++i) words_[i] = family.first_u64(block_first + i);
    } else {
      for (std::size_t i = 0; i < want; ++i) {
        Rng rng = family.stream(block_first + i);
        for (std::size_t w = 0; w < nw; ++w) words_[i * nw + w] = rng.next_u64();
      }
    }
    const std::size_t survivors = cascade(want);
    std::size_t examined = want;
    for (std::size_t j = 0; j < survivors; ++j) {
      const std::size_t row = live_[j] & ~sim::kRowBitFlag;
      const bool expected = (live_[j] & sim::kRowBitFlag) != 0;
      ++out.stable;
      // The drawn words carry stream bits past the last stage; the sink
      // gets the canonical key.
      std::uint64_t* key = words_.data() + row * nw;
      key[nw - 1] &= tail_mask;
      if (sink(key, expected) && ++out.accepted == count) {
        examined = row + 1;
        break;
      }
    }
    out.tried += examined;
  }
  out.filled = out.accepted >= count;
  out.next_index = first_index + out.tried;
  return out;
}

}  // namespace xpuf::puf
