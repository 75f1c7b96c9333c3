#include "oracles/enroll_reference.hpp"

#include "common/trace.hpp"
#include "sim/linear.hpp"
#include "sim/tester.hpp"

namespace xpuf::puf {

ServerModel enroll_reference(const Enroller& enroller, const sim::XorPufChip& chip, Rng& rng) {
  XPUF_TRACE_SPAN("puf.enroll_reference");
  const EnrollmentConfig& config = enroller.config();
  sim::ChipTester tester(config.environment, config.trials, rng.fork());
  // Build the feature block once: the scan and the per-PUF regressions
  // share the same Phi matrix.
  const FeatureBlock block(tester.random_challenges(chip, config.training_challenges));
  const sim::ChipSoftScan scan = tester.scan_individual(chip, block);
  return enroller.enroll_from_scan(chip.id(), scan, block);
}

}  // namespace xpuf::puf
