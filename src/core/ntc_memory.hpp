// NtcMemory — the library's flagship wrapper: a memory instance that
// runs at the digital domain's near-threshold supply.
//
// Composes the pieces the paper stacks up: a fault-injecting array
// model of the chosen implementation style, an ECC wrapper at/above RTL
// ("adding a digital wrapper around existing commercially available
// memories"), periodic scrubbing so errors cannot accumulate, and
// statistics for the monitor/controller loop.
#pragma once

#include <memory>
#include <optional>

#include "energy/memory_calculator.hpp"
#include "mitigation/scheme.hpp"
#include "sim/ecc_memory.hpp"

namespace ntc::core {

struct NtcMemoryConfig {
  energy::MemoryStyle style = energy::MemoryStyle::CellBasedImec40;
  std::uint32_t bytes = 8 * 1024;
  mitigation::SchemeKind scheme = mitigation::SchemeKind::Secded;
  Volt vdd{0.44};
  /// Scrub after this many accesses (0 = never). Scrubbing rewrites
  /// every word through the codec, flushing correctable upsets.
  std::uint64_t scrub_interval_accesses = 1 << 16;
  std::uint64_t seed = 1;
  bool inject_faults = true;
};

class NtcMemory final : public sim::MemoryPort {
 public:
  explicit NtcMemory(NtcMemoryConfig config);

  sim::AccessStatus read_word(std::uint32_t word_index,
                              std::uint32_t& data) override;
  sim::AccessStatus write_word(std::uint32_t word_index,
                               std::uint32_t data) override;
  std::uint32_t word_count() const override;

  /// Native bursts.  Each burst word counts as one access toward the
  /// scrub interval, and a scrub falling inside the burst splits it at
  /// exactly the word the per-word loop would have scrubbed before —
  /// bit-identical to the word-at-a-time fallback.
  sim::AccessStatus read_burst(std::uint32_t word_index,
                               std::span<std::uint32_t> data) override;
  sim::AccessStatus write_burst(std::uint32_t word_index,
                                std::span<const std::uint32_t> data) override;

  /// Run-time voltage knob (the controller drives this).
  void set_vdd(Volt vdd);
  Volt vdd() const { return config_.vdd; }

  /// Figures of merit at the current operating point.
  energy::MemoryFigures figures() const;

  /// Correction statistics since construction/reset.
  const sim::EccMemoryStats& ecc_stats() const { return inner_->stats(); }
  const sim::SramStats& array_stats() const { return inner_->array().stats(); }

  /// Mutable access to the ECC wrapper and its array — the seam for
  /// attaching scripted fault injectors (faultsim) in campaigns/tests.
  sim::EccMemory& ecc() { return *inner_; }

  /// Force a scrub pass now; returns uncorrectable words encountered.
  std::uint64_t scrub();
  std::uint64_t scrubs_performed() const { return scrubs_; }

  const NtcMemoryConfig& config() const { return config_; }
  const mitigation::MitigationScheme& scheme() const { return scheme_; }

 private:
  void maybe_scrub();

  NtcMemoryConfig config_;
  mitigation::MitigationScheme scheme_;
  energy::MemoryCalculator calculator_;
  std::unique_ptr<sim::EccMemory> inner_;
  std::uint64_t accesses_since_scrub_ = 0;
  std::uint64_t scrubs_ = 0;
};

}  // namespace ntc::core
