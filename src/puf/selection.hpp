// Stable-challenge selection strategies.
//
// ModelBasedSelector is the paper's proposal (Fig 7): the server draws
// random challenges and keeps those whose predicted soft responses are
// stable on ALL n internal PUFs — no device access needed, works for
// challenges never measured during enrollment.
//
// MeasurementBasedSelector is the prior-art baseline [1]: challenges are
// kept only if the *measured* soft responses are 100% stable, which needs
// fused tap access and per-challenge testing (and therefore cannot predict
// unmeasured challenges, the inefficiency the paper calls out for large n).
#pragma once

#include <cstdint>
#include <vector>

#include "puf/enrollment.hpp"
#include "puf/screening.hpp"

namespace xpuf::puf {

/// A selected challenge batch plus the server's expected XOR responses.
struct SelectionResult {
  std::vector<Challenge> challenges;
  std::vector<bool> expected_responses;
  std::size_t candidates_tried = 0;  ///< random draws consumed
  bool filled = false;               ///< quota reached within the attempt cap

  /// Selection yield: fraction of tried candidates that passed.
  double yield() const {
    return candidates_tried == 0
               ? 0.0
               : static_cast<double>(challenges.size()) /
                     static_cast<double>(candidates_tried);
  }
};

class ModelBasedSelector {
 public:
  /// Uses the first `n_pufs` enrolled PUFs (the XOR width under test).
  ModelBasedSelector(const ServerModel& model, std::size_t n_pufs);

  /// Draws random challenges until `count` stable ones are found or
  /// `max_attempts` candidates were tried. Consumes exactly one fork_base()
  /// draw from `rng` regardless of the walk's length.
  SelectionResult select(std::size_t count, Rng& rng,
                         std::size_t max_attempts = 10'000'000) const;

  /// Filters an existing challenge list (used by the yield benches).
  SelectionResult filter(const std::vector<Challenge>& candidates) const;

 private:
  const ServerModel* model_;
  std::size_t n_pufs_;
};

class MeasurementBasedSelector {
 public:
  /// Measures through the fused taps at one corner with `trials` per CRP.
  MeasurementBasedSelector(const sim::XorPufChip& chip, sim::Environment env,
                           std::uint64_t trials, std::size_t n_pufs);

  SelectionResult select(std::size_t count, Rng& rng,
                         std::size_t max_attempts = 10'000'000) const;

  SelectionResult filter(const std::vector<Challenge>& candidates, Rng& rng) const;

 private:
  const sim::XorPufChip* chip_;
  sim::Environment env_;
  std::uint64_t trials_;
  std::size_t n_pufs_;
};

}  // namespace xpuf::puf
