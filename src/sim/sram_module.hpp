// Fault-injecting SRAM array model.
//
// Stores raw codewords of up to 64 bits per word; every error mechanism
// is delegated to a chain of FaultInjector implementations.  The
// default chain holds the silicon-calibrated StochasticInjector
// (Section IV retention + access faults at the configured supply);
// scripted scenario injectors can be attached on top for deterministic
// campaigns.  Access/leakage counters feed the energy meter.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "reliability/access_model.hpp"
#include "reliability/noise_margin.hpp"
#include "sim/fault_injector.hpp"

namespace ntc::reliability {
class ModelTableCache;
}

namespace ntc::sim {

struct SramStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t injected_read_flips = 0;
  std::uint64_t injected_write_flips = 0;
  std::uint64_t stuck_bits = 0;  ///< persistently forced cells at this supply
};

class SramModule {
 public:
  /// `stored_bits` <= 64 per word (39 for SECDED codewords, 56 for the
  /// BCH-protected buffer).  Fault injection can be disabled for
  /// golden-reference runs (no stochastic injector is attached then).
  /// `tables`, when given, is a campaign-wide memo the stochastic
  /// injector fetches its access-curve points from instead of
  /// recomputing them per instance.
  SramModule(std::string name, std::uint32_t words, std::uint32_t stored_bits,
             reliability::AccessErrorModel access,
             reliability::NoiseMarginModel retention, Volt vdd, Rng rng,
             bool inject_faults = true,
             std::shared_ptr<reliability::ModelTableCache> tables = nullptr);

  const std::string& name() const { return name_; }
  std::uint32_t words() const { return static_cast<std::uint32_t>(data_.size()); }
  std::uint32_t stored_bits() const { return stored_bits_; }
  Volt vdd() const { return vdd_; }

  /// Change the supply: re-derives stuck cells and error probabilities.
  /// Raising the voltage heals stuck cells; cells keep whatever value
  /// the stuck state imposed (as real silicon would).
  void set_vdd(Volt vdd);

  /// Return to the as-constructed state over a new Monte-Carlo stream:
  /// zeroed data, cleared counters, a reseeded stochastic model, and the
  /// fault state re-derived at `vdd`.  Attached scripted injectors stay
  /// attached — the caller rearms them first — so a pooled array is
  /// indistinguishable from a freshly constructed one.
  void reset(Volt vdd, Rng rng);

  /// Append a scripted injector to the fault chain (after the
  /// stochastic model, if any).  Re-derives the persistent fault state
  /// so already-active stuck events take hold immediately.
  void attach_injector(std::shared_ptr<FaultInjector> injector);

  /// Raw codeword access with fault injection.
  std::uint64_t read_raw(std::uint32_t index);
  void write_raw(std::uint32_t index, std::uint64_t value);

  /// Raw burst access over [index, index + count): observably identical
  /// to `count` consecutive read_raw/write_raw calls — same per-word
  /// fault-model RNG draw order, same counters — with the chain walk,
  /// stat updates and overlay probes amortized over the whole range.
  /// Out-of-range bursts are rejected up front (NTC_REQUIRE), never
  /// wrapped or clipped.
  void read_raw_burst(std::uint32_t index, std::uint64_t* out,
                      std::uint32_t count);
  void write_raw_burst(std::uint32_t index, const std::uint64_t* values,
                       std::uint32_t count);

  /// Debug/test view of the raw stored words (no access performed, no
  /// fault model applied).
  const std::vector<std::uint64_t>& raw_words() const { return data_; }

  const SramStats& stats() const { return stats_; }
  void reset_stats() {
    stats_ = SramStats{};
    // The access counter arming scripted events is derived from the
    // stats, so it restarts with them.
    ctx_.access_count = 0;
  }

  /// Current per-bit access error probability of the stochastic model
  /// (0 when fault injection is disabled).
  double access_error_probability() const;

 private:
  std::uint64_t mask() const {
    return stored_bits_ == 64 ? ~std::uint64_t{0}
                              : ((std::uint64_t{1} << stored_bits_) - 1);
  }
  /// Merged stuck overlay for `index` (earlier injectors win on
  /// overlapping bits).
  void merged_overlay(std::uint32_t index, const FaultContext& ctx,
                      std::uint64_t& mask_bits, std::uint64_t& value_bits) const;
  /// Flip mask for the access in flight, summed over the chain.
  std::uint64_t gather_flips(AccessKind kind, std::uint32_t index,
                             const FaultContext& ctx);
  /// The chain-summed flip masks of `count` accesses of `kind` to words
  /// index, index + 1, ..., the first being access number
  /// `first_access`, drawn and fired exactly as per-word gather_flips
  /// calls would: apply(offset, mask) once for each offset whose mask is
  /// nonzero (not in offset order).  Returns the number of flipped bits.
  template <typename Apply>
  std::uint64_t burst_flips(AccessKind kind, std::uint32_t index,
                            std::uint32_t count, std::uint64_t first_access,
                            Apply&& apply);
  void derive_fault_state();

  std::string name_;
  std::uint32_t stored_bits_;
  Volt vdd_;
  bool inject_faults_;

  std::vector<std::uint64_t> data_;
  std::shared_ptr<class StochasticInjector> stochastic_;
  std::vector<std::shared_ptr<FaultInjector>> injectors_;
  SramStats stats_;

  /// Context handed to the injector hooks, updated incrementally per
  /// access instead of being rebuilt from the stats every time.
  FaultContext ctx_;
  /// Per-word merged overlay cache, valid while every injector reports
  /// a stationary overlay (invalidated by derive_fault_state, i.e. on
  /// every set_vdd/attach_injector).
  std::vector<std::uint64_t> overlay_mask_;
  std::vector<std::uint64_t> overlay_value_;
  bool overlay_cached_ = false;
  bool overlay_zero_ = false;      ///< cache valid and entirely empty
  bool flips_possible_ = false;    ///< some injector may flip accesses
};

}  // namespace ntc::sim
