// AdaptiveNtcMemory — the complete single-supply story in one object:
// a mitigated memory, its canary monitor, and the voltage controller,
// closed into the run-time loop the paper's abstract promises
// ("advanced monitoring, control and run-time error mitigation schemes
// enable the operation of these memories at the same optimal near-Vt
// voltage level as the digital logic").
//
// The host calls tick() at its monitoring cadence (e.g. once per
// second of device operation); the loop samples the canaries at the
// device's current age, steps the rail, and propagates the new supply
// into the memory's fault models.
#pragma once

#include "core/controller.hpp"
#include "core/monitor.hpp"
#include "core/ntc_memory.hpp"
#include "tech/aging.hpp"

namespace ntc::core {

/// Graceful degradation on an uncorrectable read: bounded retry (read
/// flips are transient), then scrub-and-retry (flushes accumulated
/// correctable upsets), then escalate the rail one regulator notch at a
/// time (healing marginal stuck cells, as SramModule::set_vdd models)
/// until the read decodes or the options run out.
struct RecoveryConfig {
  bool enabled = true;
  std::uint32_t max_read_retries = 2;
  std::uint32_t max_scrub_retries = 1;
  std::uint32_t max_voltage_bumps = 6;
};

struct RecoveryStats {
  std::uint64_t uncorrectable_reads = 0;  ///< escalations entered
  std::uint64_t read_retries = 0;
  std::uint64_t retry_recoveries = 0;
  std::uint64_t scrub_retries = 0;
  std::uint64_t scrub_recoveries = 0;
  std::uint64_t voltage_bumps = 0;
  std::uint64_t bump_recoveries = 0;
  std::uint64_t unrecovered_reads = 0;  ///< surfaced to the initiator
};

struct AdaptiveConfig {
  NtcMemoryConfig memory = {};
  MonitorConfig monitor = {};
  ControllerConfig controller = {};
  RecoveryConfig recovery = {};
  tech::AgingModel aging = tech::AgingModel();
  std::size_t canary_trials_per_tick = 64;
};

class AdaptiveNtcMemory final : public sim::MemoryPort {
 public:
  explicit AdaptiveNtcMemory(AdaptiveConfig config);

  // MemoryPort: plain data-plane access at the controlled rail.
  sim::AccessStatus read_word(std::uint32_t word_index,
                              std::uint32_t& data) override;
  sim::AccessStatus write_word(std::uint32_t word_index,
                               std::uint32_t data) override;
  std::uint32_t word_count() const override { return memory_.word_count(); }

  /// Native bursts through the NtcMemory stack.  While recovery is on,
  /// reads run per word, so the escalation enters at the failing word.
  sim::AccessStatus read_burst(std::uint32_t word_index,
                               std::span<std::uint32_t> data) override;
  sim::AccessStatus write_burst(std::uint32_t word_index,
                                std::span<const std::uint32_t> data) override;

  /// One monitoring epoch at device age `age`: sample canaries, update
  /// the controller, apply the (possibly changed) rail to the memory
  /// AND its own aging-shifted fault models.  Returns the applied rail.
  Volt tick(Second age);

  Volt vdd() const { return memory_.vdd(); }
  const NtcMemory& memory() const { return memory_; }
  NtcMemory& memory() { return memory_; }
  const VoltageController& controller() const { return controller_; }
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }
  double last_canary_rate() const { return last_canary_rate_; }
  std::uint64_t ticks() const { return ticks_; }

 private:
  sim::AccessStatus recover_read(std::uint32_t word_index,
                                 std::uint32_t& data);

  AdaptiveConfig config_;
  NtcMemory memory_;
  CanaryMonitor monitor_;
  VoltageController controller_;
  RecoveryStats recovery_stats_;
  double last_canary_rate_ = 0.0;
  std::uint64_t ticks_ = 0;
};

}  // namespace ntc::core
