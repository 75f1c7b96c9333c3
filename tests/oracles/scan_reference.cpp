#include "oracles/scan_reference.hpp"

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"

namespace xpuf::sim {

namespace {
// The tester's chunk grid; any fixed value keeps the result thread-count
// invariant, this one also keeps tester.measurements adds per chunk equal.
constexpr std::size_t kScanChunk = 64;
}  // namespace

ChipSoftScan scan_reference(const XorPufChip& chip, const FeatureBlock& block,
                            const Environment& env, std::uint64_t trials, Rng& rng) {
  XPUF_REQUIRE(trials > 0, "a scan needs at least one trial per challenge");
  XPUF_REQUIRE(block.empty() || block.stages() == chip.stages(),
               "challenge length != chip stage count");
  const std::size_t n_pufs = chip.puf_count();
  const std::size_t n_ch = block.size();
  ChipSoftScan scan;
  scan.challenges = block.challenges();
  scan.trials = trials;
  scan.environment = env;
  scan.soft.assign(n_pufs, std::vector<double>(n_ch, 0.0));
  const StreamFamily streams(rng.fork_base());
  // Byte flags, committed serially: adjacent vector<bool> cells share words.
  std::vector<std::vector<std::uint8_t>> stable_bytes(n_pufs,
                                                      std::vector<std::uint8_t>(n_ch, 0));
  static Counter& measurements = MetricsRegistry::global().counter("tester.measurements");
  parallel_for(n_ch, kScanChunk, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t c = begin; c < end; ++c) {
      for (std::size_t p = 0; p < n_pufs; ++p) {
        Rng cell_rng = streams.stream(p * n_ch + c);
        const SoftMeasurement m =
            chip.measure_soft_response(p, block.challenge(c), env, trials, cell_rng);
        scan.soft[p][c] = m.soft_response();
        stable_bytes[p][c] = m.fully_stable() ? 1 : 0;
      }
    }
    measurements.add((end - begin) * n_pufs);
  });
  scan.stable.resize(n_pufs);
  for (std::size_t p = 0; p < n_pufs; ++p)
    scan.stable[p].assign(stable_bytes[p].begin(), stable_bytes[p].end());
  return scan;
}

ChipSoftScan scan_reference(const XorPufChip& chip, const std::vector<Challenge>& challenges,
                            const Environment& env, std::uint64_t trials, Rng& rng) {
  return scan_reference(chip, FeatureBlock(challenges), env, trials, rng);
}

}  // namespace xpuf::sim
