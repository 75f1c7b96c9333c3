// The per-cell stage walk of an individual-PUF scan.
//
// Every (PUF, challenge) cell is measured by XorPufChip::measure_soft_response:
// the recursive stage model evaluated at the corner, then one binomial
// counter draw. It is the oracle the library's one scan kernel
// (ChipTester::scan_individual and ChipScanStream, which evaluate through
// the linear-view batch core) is bit-identical to, and it is deliberately
// the slow way. Tests and bench_scan_throughput use it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/chip.hpp"
#include "sim/environment.hpp"
#include "sim/linear.hpp"
#include "sim/tester.hpp"

namespace xpuf::sim {

/// Same contract as ChipTester(env, trials, rng).scan_individual(chip,
/// block) for a tester whose generator is `rng`: consumes one fork_base()
/// draw from `rng`, keys cell (p, c) by p * block.size() + c, and returns
/// the identical scan. Cells run on the global thread pool; the result is
/// bit-identical at any thread count.
ChipSoftScan scan_reference(const XorPufChip& chip, const FeatureBlock& block,
                            const Environment& env, std::uint64_t trials, Rng& rng);
ChipSoftScan scan_reference(const XorPufChip& chip, const std::vector<Challenge>& challenges,
                            const Environment& env, std::uint64_t trials, Rng& rng);

}  // namespace xpuf::sim
