// Scripted fault scenarios for deterministic injection campaigns.
//
// MoRS (Yüksel et al.) shows reduced-voltage SRAM faults are spatially
// correlated — rows, columns and multi-bit bursts — rather than the
// i.i.d. flips of the analytic model, and retention instability drifts
// over a device's life.  A ScenarioInjector replays a script of such
// fault events on top of (or instead of) the stochastic background
// model: every event is deterministic, armed on the array's access
// counter, optionally confined to an address range, and — for stuck
// faults — active only below a healing supply so voltage-bump recovery
// can be exercised.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/fault_injector.hpp"

namespace ntc::faultsim {

/// One scripted fault. Build via the factory helpers below.
struct FaultEvent {
  enum class Kind {
    StuckAt,        ///< persistent forced cells in one word
    RowStuck,       ///< forced cells across a row of consecutive words
    ColumnStuck,    ///< one bit position forced in every word
    TransientFlip,  ///< one-shot flip on the first matching read
    ReadBurst,      ///< flip mask applied on every matching read
    WriteBurst,     ///< flip mask latched by every matching write
  };

  Kind kind = Kind::StuckAt;
  /// Target word (StuckAt/TransientFlip/bursts) or first word of the
  /// row (RowStuck).
  std::uint32_t word = 0;
  /// Words covered from `word` on (RowStuck row length; 1 otherwise).
  std::uint32_t span = 1;
  /// Affected bits within each covered word.
  std::uint64_t bit_mask = 0;
  /// Values forced onto `bit_mask` cells (stuck kinds only).
  std::uint64_t stuck_value = 0;
  /// Active while arm_at <= access_count < disarm_at (array reads +
  /// writes); lets scripts model faults appearing mid-run.
  std::uint64_t arm_at_access = 0;
  std::uint64_t disarm_at_access = std::numeric_limits<std::uint64_t>::max();
  /// The fault heals at/above this supply (aging-marginal cells stop
  /// misbehaving once the rail rises); the default never heals (hard
  /// defect). Applies to stuck kinds and bursts alike.
  double heal_at_v = std::numeric_limits<double>::infinity();
  /// One-shot events (TransientFlip) fire on the first match only.
  bool once = false;

  // --- factories ---------------------------------------------------
  static FaultEvent stuck_at(std::uint32_t word, std::uint64_t bit_mask,
                             std::uint64_t stuck_value,
                             double heal_at_v =
                                 std::numeric_limits<double>::infinity());
  static FaultEvent row_stuck(std::uint32_t first_word, std::uint32_t words,
                              std::uint64_t bit_mask, std::uint64_t stuck_value,
                              double heal_at_v =
                                  std::numeric_limits<double>::infinity());
  static FaultEvent column_stuck(std::uint32_t bit, bool value,
                                 double heal_at_v =
                                     std::numeric_limits<double>::infinity());
  static FaultEvent transient_flip(std::uint32_t word, std::uint64_t bit_mask,
                                   std::uint64_t at_access = 0);
  /// k consecutive bits starting at `first_bit` flip on every read of
  /// `word` — the multi-bit burst that defeats SECDED at k=3 and OCEAN's
  /// BCH at k=5.
  static FaultEvent read_burst(std::uint32_t word, std::uint32_t first_bit,
                               std::uint32_t k,
                               double heal_at_v =
                                   std::numeric_limits<double>::infinity());
  static FaultEvent write_burst(std::uint32_t word, std::uint64_t bit_mask,
                                bool once = false);
};

/// A named fault script targeting one platform memory each.
struct Scenario {
  std::string name;
  std::vector<FaultEvent> spm_events;   ///< scratchpad (data) faults
  std::vector<FaultEvent> imem_events;  ///< instruction memory faults
  std::vector<FaultEvent> pm_events;    ///< OCEAN protected-buffer faults
};

/// Replays a FaultEvent script through the SramModule injection seam.
/// Stateful (one instance per array per run): one-shot events are
/// consumed as they fire.
class ScenarioInjector final : public sim::FaultInjector {
 public:
  explicit ScenarioInjector(std::vector<FaultEvent> events);

  /// Replace the script and restart as freshly constructed: one-shot
  /// consumption and the fired counter are cleared.  Lets a pooled
  /// platform keep one injector attached per array and reprogram it per
  /// run instead of rebuilding the injector chain (the owning array's
  /// fault state must be re-derived afterwards — Platform::reset does).
  void rearm(std::vector<FaultEvent> events);

  std::string name() const override { return "scenario"; }
  void stuck_overlay(std::uint32_t index, const sim::FaultContext& ctx,
                     std::uint64_t& mask, std::uint64_t& value) override;
  std::uint64_t access_flips(sim::AccessKind kind, std::uint32_t index,
                             const sim::FaultContext& ctx) override;
  /// The hull of the flip events' words (empty when the script has
  /// none).
  sim::WordSpan flip_span() const override { return flip_span_; }
  /// True when no stuck event is windowed on the access counter, so the
  /// overlay only changes with the supply (voltage healing is fine: the
  /// array re-derives its cache on every set_vdd).
  bool overlay_is_stationary() const override { return overlay_stationary_; }

  /// Number of transient/burst flip activations so far.
  std::uint64_t events_fired() const { return events_fired_; }
  /// Stuck cells active at the given operating point (for ledgers).
  std::uint64_t active_stuck_bits(const sim::FaultContext& ctx) const;

 private:
  struct Armed {
    FaultEvent event;
    bool consumed = false;
  };
  static bool stuck_kind(FaultEvent::Kind kind);
  static bool window_open(const FaultEvent& e, const sim::FaultContext& ctx);
  static bool covers(const FaultEvent& e, std::uint32_t index,
                     const sim::FaultContext& ctx);
  void overlay_for(std::uint32_t index, const sim::FaultContext& ctx,
                   std::uint64_t& mask, std::uint64_t& value) const;

  std::vector<Armed> events_;
  std::uint64_t events_fired_ = 0;
  bool overlay_stationary_ = true;
  sim::WordSpan flip_span_;
};

}  // namespace ntc::faultsim
