// Lightweight read view of one device's enrolled model.
//
// The authentication hot path needs three things from a model: the weight
// rows (for the packed screening kernel), the beta-adjusted thresholds, and
// the geometry. A ModelView carries exactly that as borrowed pointers plus a
// type-erased owner handle, so the same screening code serves
//
//   - an in-memory ServerModel (selection/issue on the registry map),
//   - an LRU-cached shared_ptr<const ServerModel> (store cache hit), and
//   - a raw mmap'd REGISTER payload (store cold path, zero parse/copy:
//     store::model_view_from_payload points the weight spans straight into
//     the mapped shard file).
//
// Lifetime rules: the view is valid while `owner()` (or the borrowed model,
// for the unowned factory) stays alive. Views into a mapped shard hold the
// mapping's shared_ptr, so compaction may swap the file underneath without
// invalidating handed-out views — the old mapping dies with its last view.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "puf/enrollment.hpp"

namespace xpuf::puf {

class ModelView {
 public:
  ModelView() = default;

  /// Borrows `m` without taking ownership — the caller keeps `m` alive for
  /// the view's lifetime (the selection path, where the model is a local).
  static ModelView of(const ServerModel& m) { return from_model(m, nullptr); }

  /// Shares ownership with an LRU cache hand-out: the view stays valid
  /// across evictions.
  static ModelView of(std::shared_ptr<const ServerModel> m) {
    XPUF_REQUIRE(m != nullptr, "ModelView::of: null model");
    const ServerModel& ref = *m;
    return from_model(ref, std::shared_ptr<const void>(std::move(m)));
  }

  /// Assembled from raw parts by store::model_view_from_payload — the only
  /// other sanctioned constructor, because the payload layout knowledge
  /// lives in the record codec.
  static ModelView from_parts(std::uint64_t chip_id, std::uint32_t stages,
                              BetaFactors betas, std::vector<const double*> weights,
                              std::vector<ThresholdPair> thresholds,
                              std::shared_ptr<const void> owner) {
    XPUF_REQUIRE(!weights.empty() && weights.size() == thresholds.size(),
                 "ModelView::from_parts: inconsistent per-PUF arrays");
    ModelView v;
    v.chip_id_ = chip_id;
    v.stages_ = stages;
    v.betas_ = betas;
    v.weights_ = std::move(weights);
    v.thresholds_ = std::move(thresholds);
    v.owner_ = std::move(owner);
    return v;
  }

  bool empty() const { return weights_.empty(); }
  std::uint64_t chip_id() const { return chip_id_; }
  std::size_t puf_count() const { return weights_.size(); }
  std::size_t stages() const { return stages_; }
  std::size_t features() const { return stages_ + 1; }

  const BetaFactors& betas() const { return betas_; }

  /// Weight row of PUF p: features() doubles, valid while the owner lives.
  std::span<const double> weights(std::size_t p) const {
    XPUF_REQUIRE(p < weights_.size(), "PUF index out of range");
    return {weights_[p], stages_ + 1};
  }

  /// Raw training thresholds of PUF p (before beta tightening).
  const ThresholdPair& raw_thresholds(std::size_t p) const {
    XPUF_REQUIRE(p < thresholds_.size(), "PUF index out of range");
    return thresholds_[p];
  }

  /// Beta-tightened thresholds — same function ServerModel applies.
  ThresholdPair adjusted_thresholds(std::size_t p) const {
    return tighten(raw_thresholds(p), betas_);
  }

  /// The keep-alive handle (null for a borrowed in-memory model).
  const std::shared_ptr<const void>& owner() const { return owner_; }

 private:
  static ModelView from_model(const ServerModel& m, std::shared_ptr<const void> owner) {
    XPUF_REQUIRE(m.puf_count() > 0, "ModelView of an empty model");
    ModelView v;
    v.chip_id_ = m.chip_id();
    v.stages_ = static_cast<std::uint32_t>(m.stages());
    v.betas_ = m.betas();
    v.weights_.reserve(m.puf_count());
    v.thresholds_.reserve(m.puf_count());
    for (std::size_t p = 0; p < m.puf_count(); ++p) {
      const PufEnrollment& e = m.puf(p);
      XPUF_REQUIRE(e.model.weights().size() == m.stages() + 1,
                   "mixed stage counts in ServerModel");
      v.weights_.push_back(e.model.weights().data());
      v.thresholds_.push_back(e.thresholds);
    }
    v.owner_ = std::move(owner);
    return v;
  }

  std::uint64_t chip_id_ = 0;
  std::uint32_t stages_ = 0;
  BetaFactors betas_;
  std::vector<const double*> weights_;
  std::vector<ThresholdPair> thresholds_;
  std::shared_ptr<const void> owner_;
};

}  // namespace xpuf::puf
