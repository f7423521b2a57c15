// Pluggable fault-injection seam of the SRAM array model.
//
// SramModule delegates every error mechanism to a chain of
// FaultInjector implementations: the silicon-calibrated stochastic
// model of Section IV (StochasticInjector) is one of them, and scripted
// scenario injectors (faultsim::ScenarioInjector) compose with it so
// correlated multi-bit, stuck-at and aging-drift scenarios can be
// driven deterministically on top of the analytic background rates.
//
// Three mechanisms cover the fault taxonomy:
//   * stuck_overlay()  — persistent cell state forced while the fault is
//     active (retention failures, hard defects); applied on every read
//     and committed into the array when the operating point changes
//     (data held by a failing cell is physically lost);
//   * access_flips()   — transient per-access flip mask; on reads the
//     flip is transient, on writes it latches into the stored word
//     until rewritten;
//   * on_operating_point() — supply changed: voltage-dependent fault
//     state must be re-derived (raising the rail heals marginal cells).
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "common/units.hpp"

namespace ntc::sim {

enum class AccessKind { Read, Write };

/// Array geometry and dynamic state handed to injectors on every hook.
struct FaultContext {
  std::uint32_t words = 0;
  std::uint32_t stored_bits = 0;
  Volt vdd{0.0};
  /// Total accesses (reads + writes) performed on the array so far,
  /// including the one in flight — the time base for armed events.
  std::uint64_t access_count = 0;
};

/// Half-open word range [begin, end).
struct WordSpan {
  std::uint32_t begin = 0;
  std::uint32_t end = std::numeric_limits<std::uint32_t>::max();
};

class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  virtual std::string name() const = 0;

  /// Contribute persistently forced cells for `index`: bits set in
  /// `mask` read back as the matching bits of `value`.  Contributions
  /// from earlier injectors in the chain win on overlapping bits.
  virtual void stuck_overlay(std::uint32_t index, const FaultContext& ctx,
                             std::uint64_t& mask, std::uint64_t& value) {
    (void)index, (void)ctx, (void)mask, (void)value;
  }

  /// Flip mask XORed into the value moving through this access.
  virtual std::uint64_t access_flips(AccessKind kind, std::uint32_t index,
                                     const FaultContext& ctx) {
    (void)kind, (void)index, (void)ctx;
    return 0;
  }

  /// Words outside of which access_flips() returns 0 and changes no
  /// state, so a burst may skip the call there.  Default: every word.
  virtual WordSpan flip_span() const { return {}; }

  /// The supply (or the injector chain) changed; re-derive any
  /// voltage-dependent fault state before the next stuck_overlay().
  virtual void on_operating_point(const FaultContext& ctx) { (void)ctx; }

  /// True when stuck_overlay() cannot change between on_operating_point
  /// calls (no dependence on the access counter).  Lets SramModule
  /// cache the merged overlay per word instead of re-walking the chain
  /// on every access; injectors with access-armed stuck events must
  /// keep the default false.
  virtual bool overlay_is_stationary() const { return false; }
};

}  // namespace ntc::sim
