// Multi-tile near-threshold platform (ROADMAP: "Multi-tile platform
// with shared-memory contention").
//
// N tiles — each a private SECDED-or-raw instruction memory plus, for
// OCEAN tiles, a private BCH-protected checkpoint memory — share one
// banked scratchpad behind an arbitrated interconnect.  All arrays hang
// off the single supply rail (the paper's core argument): an OCEAN
// voltage escalation on ANY tile raises the rail platform-wide.
//
// Per-tile mitigation rides the existing MemoryPort stack: tile t's
// region of the shared memory is encoded with t's scheme, and t's
// TileLink logs every shared-memory access into the arbiter's current
// epoch.  Timing is epoch-based: tiles run their program slices
// execution-driven, the workload calls barrier() at each
// synchronization point, and the arbiter replays the epoch's merged
// request streams to charge stalls (see arbiter.hpp).
//
// Tile t's I-mem and PM and bank b of the shared memory draw the
// streams of the salt map in sim/fault_draw.hpp (index t and b), so
// tile 0 / bank 0 draw exactly the classic Platform streams: that is
// what makes a 1-tile/1-bank TiledPlatform campaign ledger
// byte-identical to the classic path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "energy/memory_calculator.hpp"
#include "mitigation/scheme.hpp"
#include "multitile/arbiter.hpp"
#include "multitile/shared_memory.hpp"
#include "ocean/runtime.hpp"
#include "sim/ecc_memory.hpp"

namespace ntc::multitile {

struct TiledPlatformConfig {
  energy::MemoryStyle memory_style = energy::MemoryStyle::CellBasedImec40;
  /// One scheme per tile (size = tile count, power of two).
  std::vector<mitigation::SchemeKind> tile_schemes{
      mitigation::SchemeKind::Secded};
  std::uint32_t banks = 1;             ///< power of two
  std::uint32_t interleave_words = 1;  ///< bank stripe granularity
  ArbitrationPolicy arbitration = ArbitrationPolicy::RoundRobin;
  std::uint32_t arbitration_latency = 0;
  Volt vdd{0.55};
  Hertz clock{290.0e3};
  Celsius temperature{25.0};
  std::uint32_t imem_bytes = 4 * 1024;    ///< per tile
  std::uint32_t shared_bytes = 8 * 1024;  ///< banked shared scratchpad, total
  std::uint32_t pm_bytes = 1024;          ///< per OCEAN tile
  std::uint64_t seed = 1;
  bool inject_faults = true;
  std::shared_ptr<reliability::ModelTableCache> tables;
};

class TiledPlatform;

/// One tile's port into the shared memory: forwards every access and
/// logs its bank traffic (beats, coalesced per bank run, from the bank
/// table of BankedMemory) into the arbiter's current epoch.
class TileLink final : public sim::MemoryPort {
 public:
  TileLink(SharedMemory& shared, Arbiter& arbiter, std::uint32_t tile)
      : shared_(shared), arbiter_(arbiter), tile_(tile) {}

  sim::AccessStatus read_word(std::uint32_t word_index,
                              std::uint32_t& data) override {
    log_range(word_index, 1);
    return shared_.read_word(word_index, data);
  }
  sim::AccessStatus write_word(std::uint32_t word_index,
                               std::uint32_t data) override {
    log_range(word_index, 1);
    return shared_.write_word(word_index, data);
  }
  std::uint32_t word_count() const override { return shared_.word_count(); }
  sim::AccessStatus read_burst(std::uint32_t word_index,
                               std::span<std::uint32_t> data) override {
    log_range(word_index, static_cast<std::uint32_t>(data.size()));
    return shared_.read_burst(word_index, data);
  }
  sim::AccessStatus write_burst(std::uint32_t word_index,
                                std::span<const std::uint32_t> data) override {
    log_range(word_index, static_cast<std::uint32_t>(data.size()));
    return shared_.write_burst(word_index, data);
  }
  /// One shared-memory burst that reports where its uncorrectable
  /// words were.  The whole burst is logged once, and its remainder
  /// again after each uncorrectable word, in ascending order: the
  /// initiator re-requests the rest of the burst.
  sim::AccessStatus read_burst_counted(std::uint32_t word_index,
                                       std::span<std::uint32_t> data,
                                       std::uint64_t& uncorrectable) override;

 private:
  void log_range(std::uint32_t word, std::uint32_t count);

  SharedMemory& shared_;
  Arbiter& arbiter_;
  std::uint32_t tile_;
  std::vector<std::uint32_t> uncorrectable_at_;  ///< counted-read scratch
};

class TiledPlatform {
 public:
  explicit TiledPlatform(TiledPlatformConfig config);

  const TiledPlatformConfig& config() const { return config_; }
  std::uint32_t tile_count() const {
    return static_cast<std::uint32_t>(tiles_.size());
  }
  std::uint32_t bank_count() const { return shared_.banks().bank_count(); }
  mitigation::SchemeKind tile_scheme(std::uint32_t t) const {
    return config_.tile_schemes[t];
  }

  SharedMemory& shared() { return shared_; }
  Arbiter& arbiter() { return arbiter_; }
  sim::EccMemory& imem(std::uint32_t t) { return *tiles_[t].imem; }
  sim::EccMemory* pm(std::uint32_t t) { return tiles_[t].pm.get(); }
  TileLink& link(std::uint32_t t) { return *tiles_[t].link; }

  /// Charge compute cycles of tile `t` into the current epoch (each
  /// cycle also implies `fetches_per_cycle` I-mem fetches of tile t).
  void add_compute_cycles(std::uint32_t t, std::uint64_t cycles,
                          double fetches_per_cycle = 1.0);

  /// Synchronization point: close the arbiter epoch and add its
  /// makespan to the platform clock.
  void barrier();

  /// Platform cycles so far: the sum of epoch makespans (plus the
  /// pending epoch's compute maximum when a barrier is outstanding).
  std::uint64_t total_cycles() const;
  /// Total tile-cycles lost to bank contention so far.
  std::uint64_t contention_cycles() const {
    return arbiter_.stats().contention_cycles;
  }

  /// Per-tile fetch counters (energy accounting of I-mem traffic).
  std::uint64_t tile_fetches(std::uint32_t t) const {
    return tiles_[t].fetches;
  }

  /// Return the platform to the state a fresh TiledPlatform(config)
  /// with this seed/supply would be in (attached injectors survive;
  /// rearm them first — same contract as sim::Platform::reset).
  void reset(std::uint64_t seed, Volt vdd);
  /// Single-rail supply change (every bank, I-mem and PM follows).
  void set_vdd(Volt vdd);

  /// OCEAN host view of one tile: data port = the tile's arbitrated
  /// link, PM = the tile's private protected memory, set_vdd = the
  /// shared rail.
  class TileHost final : public ocean::OceanHost {
   public:
    TileHost(TiledPlatform& platform, std::uint32_t tile)
        : platform_(platform), tile_(tile) {}
    sim::MemoryPort& data_port() override { return platform_.link(tile_); }
    sim::EccMemory* pm() override { return platform_.pm(tile_); }
    void add_compute_cycles(std::uint64_t cycles,
                            double fetches_per_cycle) override {
      platform_.add_compute_cycles(tile_, cycles, fetches_per_cycle);
    }
    Volt vdd() const override { return platform_.config().vdd; }
    void set_vdd(Volt vdd) override { platform_.set_vdd(vdd); }

   private:
    TiledPlatform& platform_;
    std::uint32_t tile_;
  };
  TileHost host(std::uint32_t t) { return TileHost(*this, t); }

 private:
  struct Tile {
    std::unique_ptr<sim::EccMemory> imem;
    std::unique_ptr<sim::EccMemory> pm;  ///< null unless OCEAN
    std::unique_ptr<TileLink> link;
    std::uint64_t compute_cycles = 0;  ///< lifetime total
    std::uint64_t fetches = 0;
  };

  std::unique_ptr<sim::EccMemory> make_private_memory(
      const std::string& name, std::uint32_t bytes, std::uint32_t stored_bits,
      std::shared_ptr<const ecc::BlockCode> code, Rng stream);

  TiledPlatformConfig config_;
  SharedMemory shared_;
  Arbiter arbiter_;
  std::vector<Tile> tiles_;
  std::uint64_t makespan_ = 0;
};

}  // namespace ntc::multitile
