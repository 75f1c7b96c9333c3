// The whole-scan enrollment path.
//
// Materializes every training challenge and measurement, then fits each PUF
// with Enroller::enroll_from_scan. It is the oracle the streaming
// Enroller::enroll is bit-identical to (DESIGN.md "Streaming enrollment"),
// and the reference side of bench_enroll_throughput's A/B; its memory grows
// with training_challenges, which is what the streaming path removes.
#pragma once

#include "common/rng.hpp"
#include "puf/enrollment.hpp"
#include "sim/chip.hpp"

namespace xpuf::puf {

/// Consumes `rng` exactly as enroller.enroll(chip, rng) does and returns the
/// identical model (fit_time_ms aside: it is a wall-clock reading).
ServerModel enroll_reference(const Enroller& enroller, const sim::XorPufChip& chip, Rng& rng);

}  // namespace xpuf::puf
