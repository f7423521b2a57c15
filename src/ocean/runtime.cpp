#include "ocean/runtime.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "ecc/crc.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace ntc::ocean {

OceanRuntime::OceanRuntime(OceanHost& host, OceanConfig config)
    : host_(host), config_(config) {
  NTC_REQUIRE_MSG(host_.pm() != nullptr,
                  "OCEAN runtime needs a host with a protected memory");
}

OceanRuntime::OceanRuntime(sim::Platform& platform, OceanConfig config)
    : owned_host_(std::make_unique<PlatformOceanHost>(platform)),
      host_(*owned_host_), config_(config) {
  NTC_REQUIRE_MSG(host_.pm() != nullptr,
                  "OCEAN runtime needs a platform with a protected memory");
}

void OceanRuntime::charge(std::uint64_t cycles) {
  host_.add_compute_cycles(cycles, /*fetches_per_cycle=*/0.25);
}

RestoreResult OceanRuntime::restore_with_escalation(ProtectedBuffer& buffer,
                                                    sim::MemoryPort& spm,
                                                    workloads::ChunkRef chunk,
                                                    OceanRunOutcome& outcome) {
  NTC_TELEM_SPAN(span, telemetry::EventKind::Restore, "ocean_restore");
  NTC_TELEM_COUNT("ntc_ocean_restores_total", 1);
  RestoreResult restored = buffer.restore(spm, chunk);
  outcome.stats.restore_uncorrectable_words += restored.uncorrectable_words;
  const std::uint64_t copy_cycles = ProtectedBuffer::copy_cycles(chunk);
  outcome.stats.protocol_cycles += copy_cycles;
  charge(copy_cycles);
  while (!restored.ok() &&
         outcome.stats.voltage_escalations < config_.max_voltage_escalations) {
    // Bump the single rail one step: marginal PM cells heal (set_vdd
    // re-derives the stuck population), a scrub rewrites what just
    // became correctable, and the restore is retried at the safer
    // operating point.
    const Volt bumped{std::min(host_.vdd().value + config_.escalation_step.value,
                               config_.escalation_vmax.value)};
    if (bumped.value <= host_.vdd().value) break;  // rail capped
    ++outcome.stats.voltage_escalations;
    NTC_TELEM_EVENT(
        telemetry::EventKind::VoltageChange, "ocean_escalation",
        static_cast<std::uint64_t>(host_.vdd().value * 1000.0 + 0.5),
        static_cast<std::uint64_t>(bumped.value * 1000.0 + 0.5));
    NTC_TELEM_COUNT("ntc_ocean_voltage_escalations_total", 1);
    host_.set_vdd(bumped);
    host_.pm()->scrub();
    const std::uint64_t scrub_cycles = 2ull * host_.pm()->word_count();
    outcome.stats.protocol_cycles += scrub_cycles;
    charge(scrub_cycles);
    restored = buffer.restore(spm, chunk);
    outcome.stats.restore_uncorrectable_words += restored.uncorrectable_words;
    outcome.stats.protocol_cycles += copy_cycles;
    charge(copy_cycles);
    if (restored.ok()) ++outcome.stats.escalation_recoveries;
  }
  if (!restored.ok()) outcome.system_failure = true;
  span.set_args(chunk.word_offset, restored.uncorrectable_words);
  return restored;
}

std::uint32_t OceanRuntime::crc_of_chunk(workloads::ChunkRef chunk) {
  std::vector<std::uint32_t> buffer(chunk.words);
  host_.data_port().read_burst(chunk.word_offset, buffer);
  return ecc::Crc32::compute_words(buffer);
}

OceanRunOutcome OceanRuntime::run(workloads::StreamingTask& task) {
  OceanRunOutcome outcome;
  ProtectedBuffer buffer(*host_.pm());
  sim::MemoryPort& spm = host_.data_port();

  auto charge_checkpoint = [&](workloads::ChunkRef c) {
    const std::uint64_t cycles = ProtectedBuffer::copy_cycles(c) +
                                 config_.crc_cycles_per_word * c.words;
    outcome.stats.protocol_cycles += cycles;
    charge(cycles);
  };

  // Stage in the input and checkpoint it; a dirty read-back during the
  // copy means the staging writes failed — redo them.
  workloads::ChunkRef chunk = task.initialize(spm);
  ProtectedBuffer::SaveResult saved;
  for (std::uint32_t attempt = 0;; ++attempt) {
    {
      NTC_TELEM_SPAN(cp, telemetry::EventKind::Checkpoint, "ocean_checkpoint");
      cp.set_args(chunk.word_offset, chunk.words);
      saved = buffer.save_with_crc(spm, chunk);
    }
    NTC_TELEM_COUNT("ntc_ocean_checkpoint_words_total", chunk.words);
    NTC_TELEM_OBSERVE("ntc_ocean_checkpoint_words", chunk.words);
    outcome.stats.checkpoint_words += chunk.words;
    charge_checkpoint(chunk);
    if (saved.clean() || attempt >= config_.max_restore_attempts) break;
    chunk = task.initialize(spm);
  }
  buffer.commit();
  std::uint32_t expected_crc = saved.crc;

  for (std::size_t phase = 0; phase < task.phase_count(); ++phase) {
    // 1. Consume-time validation: the checkpoint holds exactly the last
    // output chunk, so the check applies when this phase consumes that
    // chunk (always true for classic streaming pipelines; disjoint
    // producer/consumer layouts skip it).
    const workloads::ChunkRef input = task.input_chunk(phase);
    const bool has_checkpoint = input.word_offset == chunk.word_offset &&
                                input.words == chunk.words;
    for (std::uint32_t attempt = 0; has_checkpoint; ++attempt) {
      ++outcome.stats.crc_checks;
      const std::uint64_t check_cycles =
          config_.crc_cycles_per_word * input.words;
      outcome.stats.protocol_cycles += check_cycles;
      charge(check_cycles);
      const bool match = crc_of_chunk(input) == expected_crc;
      NTC_TELEM_EVENT(telemetry::EventKind::CrcCheck, "ocean_crc_check",
                      input.word_offset, match ? 0 : 1);
      if (match) break;
      ++outcome.stats.crc_mismatches;
      NTC_TELEM_COUNT("ntc_ocean_crc_mismatches_total", 1);
      if (attempt >= config_.max_restore_attempts) break;  // best effort
      ++outcome.stats.restores;
      restore_with_escalation(buffer, spm, input, outcome);
    }

    // 2. Produce: run the phase and checkpoint its output into the idle
    // slot, validating while copying.  A mid-phase detected-uncorrectable
    // access or a dirty output chunk triggers rollback: restore the
    // input from the still-committed previous checkpoint and re-execute
    // the producer.
    workloads::PhaseResult result;
    for (std::uint32_t attempt = 0;; ++attempt) {
      result = task.run_phase(phase, spm);
      ++outcome.stats.phases_run;
      host_.add_compute_cycles(result.compute_cycles,
                               config_.fetches_per_cycle);
      {
        NTC_TELEM_SPAN(cp, telemetry::EventKind::Checkpoint,
                       "ocean_checkpoint");
        cp.set_args(result.output.word_offset, result.output.words);
        saved = buffer.save_with_crc(spm, result.output);
      }
      NTC_TELEM_COUNT("ntc_ocean_checkpoint_words_total", result.output.words);
      NTC_TELEM_OBSERVE("ntc_ocean_checkpoint_words", result.output.words);
      outcome.stats.checkpoint_words += result.output.words;
      charge_checkpoint(result.output);
      const bool good = !result.memory_fault && saved.clean();
      if (good || attempt >= config_.max_restore_attempts) break;
      ++outcome.stats.reexecutions;
      if (!has_checkpoint) break;  // producer inputs not recoverable
      ++outcome.stats.restores;
      restore_with_escalation(buffer, spm, input, outcome);
    }
    buffer.commit();
    chunk = result.output;
    expected_crc = saved.crc;
  }

  outcome.completed = true;
  return outcome;
}

std::uint64_t run_unprotected(OceanHost& host, workloads::StreamingTask& task,
                              double fetches_per_cycle) {
  sim::MemoryPort& spm = host.data_port();
  task.initialize(spm);
  std::uint64_t faulted_phases = 0;
  for (std::size_t phase = 0; phase < task.phase_count(); ++phase) {
    const workloads::PhaseResult result = task.run_phase(phase, spm);
    host.add_compute_cycles(result.compute_cycles, fetches_per_cycle);
    if (result.memory_fault) ++faulted_phases;
  }
  return faulted_phases;
}

std::uint64_t run_unprotected(sim::Platform& platform,
                              workloads::StreamingTask& task,
                              double fetches_per_cycle) {
  PlatformOceanHost host(platform);
  return run_unprotected(host, task, fetches_per_cycle);
}

}  // namespace ntc::ocean
