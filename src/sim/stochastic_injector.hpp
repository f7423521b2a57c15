// The silicon-calibrated stochastic fault model of Section IV as a
// FaultInjector:
//   * retention faults — cells whose retention V_min exceeds the supply
//     are stuck at a random value (sampled from the Gaussian
//     noise-margin population, Eq. 2);
//   * access faults — on every read each stored bit flips transiently
//     with p = Eq. 5's access error probability; on every write each
//     bit fails to latch with the same probability (persistent until
//     rewritten).
// Per-cell mismatch deviates are the silicon fingerprint of the
// instance and persist across voltage changes, so the same cells fail
// first every time the rail droops.  The fingerprint is expensive
// (~10^5 Gaussian draws) and is therefore:
//   * lazy — Box-Muller deviates over 53-bit uniforms are bounded
//     (|sigma| <= Rng::max_normal_magnitude()), so any supply above the
//     V_min that bound implies provably retains every cell and the
//     fingerprint need not exist at all.  A campaign cell at a healthy
//     supply never draws it;
//   * shared — when a reliability::ModelTableCache is attached, the
//     fingerprint is fetched from it keyed by (model, seed, cells), so
//     every platform with the same Monte-Carlo seed reuses one
//     immutable table instead of re-drawing it per grid cell.
// Both paths are bit-exact against the eager per-instance draw: the
// deviate stream, the failing set at every supply, and the stuck-value
// redraw order are preserved by construction.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "reliability/access_model.hpp"
#include "reliability/model_tables.hpp"
#include "reliability/noise_margin.hpp"
#include "sim/fault_injector.hpp"

namespace ntc::sim {

/// The nonzero flip mask for one word access: `stored_bits` iid
/// Bernoulli(p_access) bits conditioned on at least one being set.
/// Sampled by an exact conditional chain rather than rejection: while
/// no bit has flipped yet, bit b flips with p / (1 - (1-p)^(bits-b)) —
/// the product telescopes back to the iid-conditioned law exactly —
/// and once one has, the remaining bits are plain Bernoulli(p).  This
/// consumes exactly `stored_bits` engine steps; the rejection sampler
/// it replaces consumed an expected 1/(1-(1-p)^bits) full rounds,
/// millions of steps per mask at campaign probabilities.  Shared by
/// the scalar injector and the batched trace-replay engine
/// (faultsim/batch.cpp) so the two stay draw-for-draw identical.
inline std::uint64_t draw_conditional_nonzero_flips(
    Rng& rng, double p_access, std::uint32_t stored_bits) {
  std::uint64_t flips = 0;
  // -expm1(k*log1p(-p)) = 1 - (1-p)^k without the cancellation the
  // direct power suffers at tiny p.
  const double log_q = std::log1p(-p_access);
  for (std::uint32_t b = 0; b < stored_bits; ++b) {
    if (flips == 0) {
      const double p_first =
          p_access /
          -std::expm1(static_cast<double>(stored_bits - b) * log_q);
      const bool hit = rng.uniform() < p_first;
      // The final chain step has p_first == 1 exactly; guard the
      // floating-point edge so the mask can never come out zero.
      if (hit || b + 1 == stored_bits) flips |= std::uint64_t{1} << b;
    } else if (rng.bernoulli(p_access)) {
      flips |= std::uint64_t{1} << b;
    }
  }
  return flips;
}

class StochasticInjector final : public FaultInjector {
 public:
  StochasticInjector(reliability::AccessErrorModel access,
                     reliability::NoiseMarginModel retention, Rng rng,
                     std::uint32_t words, std::uint32_t stored_bits,
                     std::shared_ptr<reliability::ModelTableCache> tables =
                         nullptr);

  std::string name() const override { return "stochastic"; }
  void stuck_overlay(std::uint32_t index, const FaultContext& ctx,
                     std::uint64_t& mask, std::uint64_t& value) override;
  std::uint64_t access_flips(AccessKind kind, std::uint32_t index,
                             const FaultContext& ctx) override;
  void on_operating_point(const FaultContext& ctx) override;
  /// Retention stuck state depends only on the supply, never on the
  /// access counter.
  bool overlay_is_stationary() const override { return true; }

  /// Current per-bit access error probability (Eq. 5 at the last-seen
  /// supply).
  double p_access() const { return p_access_; }

  /// Fill flips[0..count) with the masks `count` consecutive
  /// access_flips calls would draw, in the same order (the burst fast
  /// path; access kind and word index do not enter the distribution).
  /// Must only be called while p_access() > 0 — the zero-rate case
  /// draws nothing per word and is handled by the caller's fault-free
  /// path.
  void access_flips_burst(std::uint32_t count, std::uint64_t* flips);

  /// Restart as a freshly-constructed instance over `rng`: new silicon
  /// fingerprint, no stuck cells, untouched flip stream — the
  /// Platform::reset fast path.  The caller re-derives the operating
  /// point afterwards.
  void reseed(Rng rng);

  /// True once the fingerprint has been drawn or fetched (test hook for
  /// the lazy path).
  bool fingerprint_materialized() const { return vmin_ != nullptr; }

 private:
  void materialize_fingerprint();
  void rebuild_stuck_state(std::size_t count);
  std::uint64_t draw_flip_mask();
  std::uint64_t draw_nonzero_flips();

  reliability::AccessErrorModel access_;
  reliability::NoiseMarginModel retention_;
  Rng rng_;
  std::uint32_t stored_bits_;
  std::shared_ptr<reliability::ModelTableCache> tables_;
  double p_access_ = 0.0;
  double p_no_flip_ = 1.0;  ///< (1 - p_access)^stored_bits, fast path
  /// Integer image of p_no_flip_ for the burst gate scan: a 53-bit
  /// uniform u gates a flip when (u >> 11) >= gate_threshold_
  /// (simd::gate_threshold keeps this exactly equivalent to the
  /// double compare draw_flip_mask performs).
  std::uint64_t gate_threshold_ = std::uint64_t{1} << 53;

  /// Supplies at or above this provably retain every cell whatever the
  /// (undrawn) deviates are: V_min of a cell at the Box-Muller bound.
  double lazy_safe_vdd_ = 0.0;
  /// The fingerprint, null until a supply below lazy_safe_vdd_ forces
  /// it into existence; shared when a table cache is attached.
  std::shared_ptr<const reliability::RetentionVminTable> vmin_;

  /// Per-word masks of retention-failed cells and their stuck values.
  std::vector<std::uint64_t> stuck_mask_;
  std::vector<std::uint64_t> stuck_value_;
  std::size_t stuck_count_ = 0;  ///< current failing-set size
};

}  // namespace ntc::sim
