// OCEAN checkpoint/rollback runtime (paper Figure 7).
//
// Drives a StreamingTask on the simulated platform with the OCEAN
// protocol: after each phase the output chunk is DMA-copied into the
// BCH-protected buffer together with a CRC-32 signature; before each
// phase the input chunk's CRC is re-checked, and on mismatch the chunk
// is restored from the protected buffer instead of re-running its
// producer.  All checkpoint, check and restore work is charged to the
// platform's cycle/energy accounting.
//
// The runtime talks to its execution environment through the OceanHost
// interface — a data port, a protected memory, a cycle sink and the
// (single) supply rail — so the same protocol runs unchanged on the
// classic single-core sim::Platform and on one tile of a
// multitile::TiledPlatform.
#pragma once

#include <memory>

#include "ocean/protected_buffer.hpp"
#include "sim/platform.hpp"
#include "workloads/streaming.hpp"

namespace ntc::ocean {

struct OceanConfig {
  std::uint32_t max_restore_attempts = 3;
  /// Software CRC cost (core cycles per 32-bit word checked).
  std::uint64_t crc_cycles_per_word = 4;
  /// Instruction fetches charged per compute cycle of the workload.
  double fetches_per_cycle = 1.0;
  /// Graceful degradation on an uncorrectable protected-buffer word:
  /// before declaring system failure, bump the (single) rail one
  /// regulator step at a time — healing marginal cells, as
  /// SramModule::set_vdd models — scrub the PM and retry the restore.
  /// 0 keeps the legacy fail-fast behaviour.
  std::uint32_t max_voltage_escalations = 0;
  Volt escalation_step{0.05};
  Volt escalation_vmax{1.10};
};

struct OceanRunStats {
  std::uint64_t phases_run = 0;
  std::uint64_t crc_checks = 0;
  std::uint64_t crc_mismatches = 0;
  std::uint64_t restores = 0;
  std::uint64_t reexecutions = 0;  ///< phases re-run after detected errors
  std::uint64_t restore_uncorrectable_words = 0;  ///< quintuple-error hits
  std::uint64_t checkpoint_words = 0;
  std::uint64_t protocol_cycles = 0;  ///< CRC + DMA overhead cycles
  std::uint64_t voltage_escalations = 0;   ///< rail bumps on failed restores
  std::uint64_t escalation_recoveries = 0; ///< restores saved by a bump
};

struct OceanRunOutcome {
  bool completed = false;
  /// True if a restore met an uncorrectable protected-buffer word — the
  /// OCEAN system-failure condition (quintuple bit error).
  bool system_failure = false;
  OceanRunStats stats;
};

/// Execution environment the OCEAN protocol runs against.  The classic
/// adapter wraps sim::Platform; multitile::TiledPlatform exposes one
/// host per tile (data port = the tile's arbitrated shared-memory link,
/// PM = the tile-private protected buffer, set_vdd = the shared rail).
class OceanHost {
 public:
  virtual ~OceanHost() = default;
  /// The working memory the streaming task reads and writes.
  virtual sim::MemoryPort& data_port() = 0;
  /// The BCH-protected checkpoint memory (never null for OCEAN hosts).
  virtual sim::EccMemory* pm() = 0;
  /// Charge workload/protocol cycles (and the implied I-mem fetches).
  virtual void add_compute_cycles(std::uint64_t cycles,
                                  double fetches_per_cycle) = 0;
  /// Current supply voltage of the (single) rail.
  virtual Volt vdd() const = 0;
  /// Raise/lower the single rail (affects every array sharing it).
  virtual void set_vdd(Volt vdd) = 0;
};

/// OceanHost over the classic single-core platform.
class PlatformOceanHost final : public OceanHost {
 public:
  explicit PlatformOceanHost(sim::Platform& platform) : platform_(platform) {}
  sim::MemoryPort& data_port() override { return platform_.spm(); }
  sim::EccMemory* pm() override { return platform_.pm(); }
  void add_compute_cycles(std::uint64_t cycles,
                          double fetches_per_cycle) override {
    platform_.add_compute_cycles(cycles, fetches_per_cycle);
  }
  Volt vdd() const override { return platform_.config().vdd; }
  void set_vdd(Volt vdd) override { platform_.set_vdd(vdd); }

 private:
  sim::Platform& platform_;
};

class OceanRuntime {
 public:
  /// The host must expose a protected memory (pm() != nullptr).
  explicit OceanRuntime(OceanHost& host, OceanConfig config = {});
  /// Convenience: the platform must be built with SchemeKind::Ocean
  /// (it owns the PM).  Wraps it in an internal PlatformOceanHost.
  explicit OceanRuntime(sim::Platform& platform, OceanConfig config = {});

  /// Run the task to completion under OCEAN protection.
  OceanRunOutcome run(workloads::StreamingTask& task);

 private:
  std::uint32_t crc_of_chunk(workloads::ChunkRef chunk);
  void charge(std::uint64_t cycles);
  /// Restore `chunk` from `buffer`, escalating the rail on uncorrectable
  /// words when configured; sets system_failure when out of options.
  RestoreResult restore_with_escalation(ProtectedBuffer& buffer,
                                        sim::MemoryPort& spm,
                                        workloads::ChunkRef chunk,
                                        OceanRunOutcome& outcome);

  std::unique_ptr<OceanHost> owned_host_;  ///< Platform-ctor adapter
  OceanHost& host_;
  OceanConfig config_;
};

/// Baseline runner for the No-mitigation and plain-ECC configurations:
/// phases execute back to back with no checkpoint protocol; compute
/// cycles and fetches are charged identically.  Returns the number of
/// phases that reported an uncorrectable memory fault.
std::uint64_t run_unprotected(OceanHost& host, workloads::StreamingTask& task,
                              double fetches_per_cycle = 1.0);
std::uint64_t run_unprotected(sim::Platform& platform,
                              workloads::StreamingTask& task,
                              double fetches_per_cycle = 1.0);

}  // namespace ntc::ocean
