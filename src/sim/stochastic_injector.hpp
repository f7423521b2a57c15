// The silicon-calibrated stochastic fault model of Section IV as a
// FaultInjector: a thin adapter over the array's FaultDraw
// (sim/fault_draw.hpp), the one sampler both campaign engines call —
// this injector on the scalar platform, BatchEngine::replay_trial
// directly.  Retention-stuck cells become the stuck overlay, access
// flips the per-access flip masks, and an operating-point change
// re-derives both at the new supply.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/fault_draw.hpp"
#include "sim/fault_injector.hpp"

namespace ntc::sim {

class StochasticInjector final : public FaultInjector {
 public:
  StochasticInjector(reliability::AccessErrorModel access,
                     reliability::NoiseMarginModel retention, Rng rng,
                     std::uint32_t words, std::uint32_t stored_bits,
                     std::shared_ptr<reliability::ModelTableCache> tables =
                         nullptr)
      : tables_(std::move(tables)),
        draw_(std::move(access), std::move(retention), words, stored_bits,
              tables_.get(), rng) {}

  std::string name() const override { return "stochastic"; }
  void stuck_overlay(std::uint32_t index, const FaultContext& ctx,
                     std::uint64_t& mask, std::uint64_t& value) override {
    (void)ctx;
    const StuckWord stuck = draw_.stuck_word(index);
    mask = stuck.mask;
    value = stuck.value;
  }
  std::uint64_t access_flips(AccessKind kind, std::uint32_t index,
                             const FaultContext& ctx) override {
    (void)kind, (void)index, (void)ctx;
    return draw_.next_flips();
  }
  void on_operating_point(const FaultContext& ctx) override {
    draw_.set_vdd(ctx.vdd);
  }
  /// Retention stuck state depends only on the supply, never on the
  /// access counter.
  bool overlay_is_stationary() const override { return true; }

  /// The sampler, for the array's burst paths (FaultDraw::scan_flips).
  FaultDraw& draw() { return draw_; }
  double p_access() const { return draw_.p_access(); }

  /// Restart as a freshly constructed instance over `rng` — the
  /// Platform::reset fast path.  The caller re-derives the operating
  /// point afterwards.
  void reseed(Rng rng) { draw_.reseed(rng); }

 private:
  /// Keeps the cache draw_ fetches its tables from alive.
  std::shared_ptr<reliability::ModelTableCache> tables_;
  FaultDraw draw_;
};

}  // namespace ntc::sim
