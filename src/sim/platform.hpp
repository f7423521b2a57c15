// The evaluated single-core SoC (paper Figure 6).
//
// 32-bit core + 4 KB instruction memory + 8 KB scratchpad data memory,
// AHB-class bus; OCEAN configurations add the protected memory (PM) and
// checkpoint hardware.  Construction picks the mitigation scheme:
//   * NoMitigation — both memories store raw 32-bit words;
//   * Secded      — IM and SPM store (39,32) codewords, codec charged
//                    per access;
//   * Ocean       — IM keeps SECDED (detect-and-rollback for fetches),
//                    SPM raw, plus a BCH(t=4)-protected PM for
//                    checkpoint chunks.
// Energy is accounted per module from access counters and the
// calibrated memory/logic models; workloads that execute natively
// (execution-driven, e.g. the FFT) charge their compute cycles through
// add_compute_cycles().
#pragma once

#include <memory>
#include <optional>

#include "ecc/codec_overhead.hpp"
#include "energy/logic_model.hpp"
#include "energy/memory_calculator.hpp"
#include "mitigation/scheme.hpp"
#include "sim/bus.hpp"
#include "sim/cpu.hpp"
#include "sim/ecc_memory.hpp"

namespace ntc::reliability {
class ModelTableCache;
}

namespace ntc::sim {

struct PlatformConfig {
  energy::MemoryStyle memory_style = energy::MemoryStyle::CellBasedImec40;
  mitigation::SchemeKind scheme = mitigation::SchemeKind::NoMitigation;
  Volt vdd{0.55};
  Hertz clock{290.0e3};
  Celsius temperature{25.0};
  std::uint32_t imem_bytes = 4 * 1024;
  std::uint32_t spm_bytes = 8 * 1024;
  std::uint32_t pm_bytes = 1024;  ///< OCEAN protected buffer
  std::uint64_t seed = 1;
  bool inject_faults = true;
  /// Optional campaign-wide memo of the access-error curve shared by
  /// every platform handed the same cache.  Null keeps the model
  /// evaluations platform-private.
  std::shared_ptr<reliability::ModelTableCache> tables;
};

/// Word-index base addresses on the bus (byte addresses are 4x).
struct PlatformMap {
  static constexpr std::uint32_t kImemBase = 0x0000'0000;
  static constexpr std::uint32_t kSpmBase = 0x0001'0000;
  static constexpr std::uint32_t kPmBase = 0x0002'0000;
};

/// Per-module power/energy split (the bars of Figures 8 and 9).
struct PlatformEnergyReport {
  Watt core{0.0};
  Watt imem{0.0};
  Watt spm{0.0};
  Watt pm{0.0};
  Watt codec{0.0};  ///< ECC / OCEAN hardware

  Watt total() const { return core + imem + spm + pm + codec; }
};

class Platform {
 public:
  explicit Platform(PlatformConfig config);

  const PlatformConfig& config() const { return config_; }
  Cpu& cpu() { return *cpu_; }
  Bus& bus() { return bus_; }
  EccMemory& imem() { return *imem_; }
  EccMemory& spm() { return *spm_; }
  EccMemory* pm() { return pm_.get(); }  ///< null unless OCEAN

  /// Load a program image into the instruction memory (fault injection
  /// bypassed during load) and reset the core to its start.
  void load_program(const std::vector<std::uint32_t>& words);

  /// Charge compute cycles for execution-driven workloads that do not
  /// run on the RISC core (each charged cycle also implies one
  /// instruction fetch worth of IM traffic unless `with_fetches` = 0).
  void add_compute_cycles(std::uint64_t cycles, double fetches_per_cycle = 1.0);

  /// Total platform cycles so far (core + charged compute cycles).
  std::uint64_t total_cycles() const;

  /// Elapsed wall-clock time at the configured clock.
  Second elapsed() const;

  /// Average power over the elapsed execution, split per module.
  PlatformEnergyReport energy_report() const;

  /// Change the (single) supply rail at run time — the monitor/control
  /// loop knob.  Affects fault injection and all energy figures of
  /// subsequent activity (the report uses the current supply).
  void set_vdd(Volt vdd);

  /// Fast re-init: return the platform to the state a fresh
  /// Platform(config) with the given seed/supply would be in, without
  /// reconstructing the memory arenas.  Memories are zeroed and
  /// reseeded, counters cleared, the core reset.  Scripted injectors
  /// attached to the arrays survive (rearm them first); the stochastic
  /// model is reseeded like a new instance.
  void reset(std::uint64_t seed, Volt vdd);

  /// As above, additionally switching the mitigation scheme.  A scheme
  /// change rebuilds the memories and codec models (their geometry and
  /// codes differ per scheme) — still cheaper than a full construction,
  /// but attached injectors are dropped with the old arrays.
  void reset(std::uint64_t seed, Volt vdd, mitigation::SchemeKind scheme);

  /// The mitigation scheme descriptor in effect.
  const mitigation::MitigationScheme& scheme() const { return scheme_; }

 private:
  std::unique_ptr<EccMemory> make_memory(const std::string& name,
                                         std::uint32_t bytes,
                                         std::uint32_t stored_bits,
                                         std::shared_ptr<const ecc::BlockCode> code,
                                         Rng stream);
  /// Build memories, bus map and core from config_ (construction and
  /// scheme-change reset share this).
  void build_memories();

  PlatformConfig config_;
  mitigation::MitigationScheme scheme_;
  energy::MemoryCalculator imem_calc_;
  energy::MemoryCalculator spm_calc_;
  energy::MemoryCalculator pm_calc_;
  energy::LogicModel core_model_;
  energy::LogicModel codec_model_;
  ecc::CodecOverhead secded_overhead_;
  ecc::CodecOverhead bch_overhead_;

  Bus bus_;
  std::unique_ptr<EccMemory> imem_;
  std::unique_ptr<EccMemory> spm_;
  std::unique_ptr<EccMemory> pm_;
  std::unique_ptr<Cpu> cpu_;

  std::uint64_t extra_cycles_ = 0;
  std::uint64_t extra_fetches_ = 0;
};

}  // namespace ntc::sim
