#include "core/adaptive_memory.hpp"

#include "common/assert.hpp"
#include "energy/memory_calculator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace {

inline std::uint64_t to_mv(ntc::Volt v) {
  return static_cast<std::uint64_t>(v.value * 1000.0 + 0.5);
}

}  // namespace

namespace ntc::core {

namespace {

reliability::AccessErrorModel access_model_for(const NtcMemoryConfig& config) {
  energy::MemoryCalculator calc(config.style,
                                energy::MemoryGeometry{config.bytes / 4, 32});
  return calc.access_model();
}

}  // namespace

AdaptiveNtcMemory::AdaptiveNtcMemory(AdaptiveConfig config)
    : config_(config),
      memory_(config.memory),
      monitor_(access_model_for(config.memory), config.aging, config.monitor),
      controller_(config.memory.vdd, config.controller) {
  NTC_REQUIRE(config_.canary_trials_per_tick > 0);
}

sim::AccessStatus AdaptiveNtcMemory::read_word(std::uint32_t word_index,
                                               std::uint32_t& data) {
  const sim::AccessStatus status = memory_.read_word(word_index, data);
  if (status != sim::AccessStatus::DetectedUncorrectable ||
      !config_.recovery.enabled)
    return status;
  return recover_read(word_index, data);
}

sim::AccessStatus AdaptiveNtcMemory::recover_read(std::uint32_t word_index,
                                                  std::uint32_t& data) {
  ++recovery_stats_.uncorrectable_reads;
  NTC_TELEM_EVENT(telemetry::EventKind::Recovery, "recovery_enter",
                  telemetry::RecoveryStage::Enter, 0);
  NTC_TELEM_COUNT("ntc_recovery_uncorrectable_reads_total", 1);

  // 1. Bounded re-read: transient read flips decorrelate between
  // attempts, so a marginal word often decodes on the second try.
  for (std::uint32_t r = 0; r < config_.recovery.max_read_retries; ++r) {
    ++recovery_stats_.read_retries;
    if (memory_.read_word(word_index, data) !=
        sim::AccessStatus::DetectedUncorrectable) {
      ++recovery_stats_.retry_recoveries;
      NTC_TELEM_EVENT(telemetry::EventKind::Recovery, "recovery_retry",
                      telemetry::RecoveryStage::Retry, 1);
      return sim::AccessStatus::CorrectedError;
    }
  }

  // 2. Scrub-and-retry: rewrite the array through the codec so
  // accumulated correctable upsets stop stacking on top of the failing
  // word's own errors.
  for (std::uint32_t s = 0; s < config_.recovery.max_scrub_retries; ++s) {
    ++recovery_stats_.scrub_retries;
    memory_.scrub();
    if (memory_.read_word(word_index, data) !=
        sim::AccessStatus::DetectedUncorrectable) {
      ++recovery_stats_.scrub_recoveries;
      NTC_TELEM_EVENT(telemetry::EventKind::Recovery, "recovery_scrub",
                      telemetry::RecoveryStage::ScrubRetry, 1);
      return sim::AccessStatus::CorrectedError;
    }
  }

  // 3. Voltage-bump escalation: step the (single) rail up the regulator
  // ladder — marginal stuck cells heal, access-error rates collapse —
  // scrub, and retry.  The canary loop walks the rail back down later.
  for (std::uint32_t b = 0; b < config_.recovery.max_voltage_bumps; ++b) {
    const Volt old_rail = memory_.vdd();
    const Volt rail = controller_.escalate();
    if (rail.value <= memory_.vdd().value) break;  // ladder capped
    ++recovery_stats_.voltage_bumps;
    NTC_TELEM_EVENT(telemetry::EventKind::VoltageChange, "recovery_bump",
                    to_mv(old_rail), to_mv(rail));
    NTC_TELEM_COUNT("ntc_recovery_voltage_bumps_total", 1);
    memory_.set_vdd(rail);
    memory_.scrub();
    if (memory_.read_word(word_index, data) !=
        sim::AccessStatus::DetectedUncorrectable) {
      ++recovery_stats_.bump_recoveries;
      NTC_TELEM_EVENT(telemetry::EventKind::Recovery, "recovery_bump",
                      telemetry::RecoveryStage::VoltageBump, 1);
      return sim::AccessStatus::CorrectedError;
    }
  }

  ++recovery_stats_.unrecovered_reads;
  NTC_TELEM_EVENT(telemetry::EventKind::Recovery, "recovery_failed",
                  telemetry::RecoveryStage::Failed, 0);
  return sim::AccessStatus::DetectedUncorrectable;
}

sim::AccessStatus AdaptiveNtcMemory::write_word(std::uint32_t word_index,
                                                std::uint32_t data) {
  return memory_.write_word(word_index, data);
}

sim::AccessStatus AdaptiveNtcMemory::read_burst(
    std::uint32_t word_index, std::span<std::uint32_t> data) {
  // Recovery acts between words, so with it on the read stays per word.
  if (!sim::burst_native_enabled() || config_.recovery.enabled)
    return MemoryPort::read_burst(word_index, data);
  return memory_.read_burst(word_index, data);
}

sim::AccessStatus AdaptiveNtcMemory::write_burst(
    std::uint32_t word_index, std::span<const std::uint32_t> data) {
  if (!sim::burst_native_enabled())
    return MemoryPort::write_burst(word_index, data);
  return memory_.write_burst(word_index, data);
}

Volt AdaptiveNtcMemory::tick(Second age) {
  NTC_REQUIRE(age.value >= 0.0);
  ++ticks_;
  last_canary_rate_ = monitor_.sample_error_rate(
      controller_.voltage(), age, config_.canary_trials_per_tick);
  const Volt rail = controller_.update(last_canary_rate_);
  if (rail.value != memory_.vdd().value) {
    NTC_TELEM_EVENT(telemetry::EventKind::VoltageChange, "controller_tick",
                    to_mv(memory_.vdd()), to_mv(rail));
    NTC_TELEM_GAUGE("ntc_rail_millivolts", rail.value * 1000.0);
    memory_.set_vdd(rail);
    // A changed rail also changes how close the aged cells are to their
    // limits; a scrub flushes anything the transition disturbed.
    memory_.scrub();
  }
  return rail;
}

}  // namespace ntc::core
