#include "sim/tester.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"

namespace xpuf::sim {

namespace {
// Challenges per parallel chunk. Fixed (never derived from the thread
// count) so the chunk grid — and therefore every RNG stream assignment —
// is identical for any pool size.
constexpr std::size_t kScanChunk = 64;

void require_block_matches(const FeatureBlock& block, const XorPufChip& chip) {
  XPUF_REQUIRE(block.empty() || block.stages() == chip.stages(),
               "challenge length != chip stage count");
}

// soft_response() is ones / trials; with trials fixed the quotient takes only
// trials + 1 distinct values, so precompute them once (same division, hence
// the same bits). Guarded so a pathological trial count cannot demand a giant
// table; an empty result means "divide per cell".
constexpr std::uint64_t kSoftLutMax = 1u << 20;

std::vector<double> build_soft_lut(std::uint64_t trials) {
  std::vector<double> lut;
  if (trials <= kSoftLutMax) {
    lut.resize(trials + 1);
    for (std::uint64_t k = 0; k <= trials; ++k)
      lut[k] = static_cast<double>(k) / static_cast<double>(trials);
  }
  return lut;
}

// The one cell-measurement kernel every scan runs: block rows [begin, end)
// of every PUF, cell (p, c) drawing its binomial counter from
// streams.stream(p * stride + offset + c). Serial; scans call it from their
// parallel_for chunk bodies. An empty soft_lut means "divide per cell".
void measure_cells(const ChipLinearView& view, const FeatureBlock& block, std::size_t begin,
                   std::size_t end, const StreamFamily& streams, std::size_t stride,
                   std::size_t offset, std::uint64_t trials,
                   const std::vector<double>& soft_lut,
                   std::vector<std::vector<double>>& soft,
                   std::vector<std::vector<std::uint8_t>>& stable) {
  // Sharded counter: each worker hits its own cache line, so recording from
  // inside a parallel body is contention-free and the merged total is a
  // pure function of the workload (never of the thread count). One add per
  // chunk keeps even that off the per-cell path.
  static Counter& measurements = MetricsRegistry::global().counter("tester.measurements");
  const std::size_t n_pufs = view.puf_count();
  // One GEMM tile for the whole chunk. thread_local staging: one buffer per
  // worker for the whole scan instead of one allocation per chunk.
  thread_local std::vector<double> probs;
  probs.resize((end - begin) * n_pufs);
  view.one_probabilities_into(block, begin, end, probs.data());
  // PUF-outer order keeps the soft/stable writes contiguous; it cannot
  // change any value because every cell draws from its own private stream,
  // keyed by index alone.
  for (std::size_t p = 0; p < n_pufs; ++p) {
    double* soft_row = soft[p].data();
    std::uint8_t* stable_row = stable[p].data();
    for (std::size_t c = begin; c < end; ++c) {
      Rng cell_rng = streams.stream(p * stride + offset + c);
      const std::uint64_t ones = cell_rng.binomial(trials, probs[(c - begin) * n_pufs + p]);
      soft_row[c] = soft_lut.empty()
                        ? static_cast<double>(ones) / static_cast<double>(trials)
                        : soft_lut[ones];
      stable_row[c] = (ones == 0 || ones == trials) ? 1 : 0;
    }
  }
  measurements.add((end - begin) * n_pufs);
}
}  // namespace

ChipTester::ChipTester(Environment env, std::uint64_t trials, Rng rng)
    : env_(env), trials_(trials), rng_(rng) {
  XPUF_REQUIRE(trials > 0, "ChipTester needs at least one trial per challenge");
}

// Any count is legal (an empty scan is a no-op); the stage count is guarded
// inside random_challenges.
std::vector<Challenge> ChipTester::random_challenges(const XorPufChip& chip,
                                                     std::size_t count) {
  return sim::random_challenges(chip.stages(), count, rng_);
}

ChipSoftScan ChipTester::scan_individual(const XorPufChip& chip,
                                         const std::vector<Challenge>& challenges) {
  return scan_individual(chip, FeatureBlock(challenges));
}

ChipSoftScan ChipTester::scan_individual(const XorPufChip& chip,
                                         const FeatureBlock& block) {
  ChipSoftScan scan;
  scan_individual_into(chip, block, scan);
  return scan;
}

void ChipTester::scan_individual_into(const XorPufChip& chip, const FeatureBlock& block,
                                      ChipSoftScan& scan) {
  XPUF_TRACE_SPAN("tester.scan_individual");
  require_block_matches(block, chip);
  const std::size_t n_pufs = chip.puf_count();
  const std::size_t n_ch = block.size();
  // Element-wise vector assignment reuses the destination's heap blocks when
  // the shape matches the previous scan — that is the whole point of the
  // _into variant.
  scan.challenges = block.challenges();
  scan.trials = trials_;
  scan.environment = env_;
  // resize, not assign: every cell below is written exactly once, so
  // re-zeroing a reused row would be pure memory traffic.
  scan.soft.resize(n_pufs);
  for (auto& row : scan.soft) row.resize(n_ch);
  scan.stable.resize(n_pufs);

  // Materializing the linear view also performs the per-tap access check a
  // deployed chip must fail. An empty scan touches no cell and checks
  // nothing.
  ChipLinearView view;
  std::vector<double> soft_lut;
  if (n_ch > 0) {
    view = chip.linear_view(env_);
    soft_lut = build_soft_lut(trials_);
  }

  // One base draw keys every (puf, challenge) cell's private stream; each
  // cell's measurement noise is a pure function of (base, cell index).
  const StreamFamily streams(rng_.fork_base());
  // vector<bool> packs bits, so adjacent cells share words — stage stability
  // flags in a byte buffer and commit serially after the parallel loop.
  std::vector<std::vector<std::uint8_t>> stable_bytes(
      n_pufs, std::vector<std::uint8_t>(n_ch, 0));
  parallel_for(n_ch, kScanChunk, [&](std::size_t begin, std::size_t end, std::size_t) {
    measure_cells(view, block, begin, end, streams, n_ch, 0, trials_, soft_lut, scan.soft,
                  stable_bytes);
  });
  for (std::size_t p = 0; p < n_pufs; ++p)
    scan.stable[p].assign(stable_bytes[p].begin(), stable_bytes[p].end());
}

ChipScanStream::ChipScanStream(const XorPufChip& chip, const Environment& env,
                               std::uint64_t trials, std::size_t total, std::size_t chunk,
                               Rng& tester_rng)
    : chip_(&chip),
      env_(env),
      trials_(trials),
      total_(total),
      chunk_(chunk),
      challenge_rng_(tester_rng) {
  XPUF_REQUIRE(chunk >= 1, "scan stream needs a chunk size of at least one");
  challenge_rng_start_ = challenge_rng_;
  // Pre-roll: advance the tester's generator past exactly the draws the
  // materialized path's challenge generation would consume (one u64 per
  // challenge bit), so the base draw below lands on the same state
  // scan_individual's fork_base() would see — and the tester continues from
  // the same state afterwards. O(1) memory; the drawn bits are regenerated
  // chunk by chunk from the saved copy.
  const std::size_t stages = chip.stages();
  for (std::size_t i = 0; i < total * stages; ++i) tester_rng.next_u64();
  base_ = tester_rng.fork_base();
  // Materializing the linear view also performs the per-tap access check a
  // deployed chip must fail — at stream construction, not first use.
  view_ = chip.linear_view(env_);
  soft_lut_ = build_soft_lut(trials_);
}

void ChipScanStream::reset() {
  challenge_rng_ = challenge_rng_start_;
  position_ = 0;
}

// Exhaustion is the normal return path, not an error.
bool ChipScanStream::next(ScanChunk& chunk) {
  if (position_ >= total_) return false;
  XPUF_TRACE_SPAN("tester.scan_stream_chunk");
  const std::size_t begin_global = position_;
  const std::size_t m = std::min(chunk_, total_ - position_);
  const std::size_t stages = chip_->stages();
  const std::size_t n_pufs = chip_->puf_count();

  // Regenerate this chunk's challenges from the saved generator copy; the
  // draw sequence is the materialized path's, just consumed lazily.
  challenge_buf_.resize(m);
  for (std::size_t i = 0; i < m; ++i)
    random_challenge_into(challenge_buf_[i], stages, challenge_rng_);
  chunk.offset = begin_global;
  chunk.block.assign(challenge_buf_);

  chunk.soft.resize(n_pufs);
  for (auto& row : chunk.soft) row.resize(m);
  chunk.stable.resize(n_pufs);
  for (auto& row : chunk.stable) row.resize(m);

  // Same cell streams as scan_individual over the full scan: cell (p, c) is
  // keyed by p * total + c regardless of how rows are chunked, so every
  // measurement is a pure function of (base, cell) — chunking and thread
  // count change nothing.
  const StreamFamily streams(base_);
  parallel_for(m, kScanChunk, [&](std::size_t begin, std::size_t end, std::size_t) {
    measure_cells(view_, chunk.block, begin, end, streams, total_, begin_global, trials_,
                  soft_lut_, chunk.soft, chunk.stable);
  });
  position_ += m;
  return true;
}

ChipScanStream ChipTester::stream_individual(const XorPufChip& chip, std::size_t total,
                                             std::size_t chunk_challenges) {
  return ChipScanStream(chip, env_, trials_, total, chunk_challenges, rng_);
}

}  // namespace xpuf::sim
