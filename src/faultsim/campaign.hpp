// Seed-swept Monte-Carlo fault-injection campaigns.
//
// A campaign executes the paper's evaluation workload (the fixed-point
// FFT, execution-driven through the simulated platform) across a
// voltage x mitigation-scheme x fault-scenario grid, several seeds per
// cell, and classifies every run against a fault-free golden reference:
//
//   Clean                  — no fault activity, output exact;
//   Corrected              — faults occurred, mitigation absorbed them,
//                            output exact;
//   DetectedUncorrectable  — output wrong but the scheme flagged it
//                            (trap/rollback possible at system level);
//   SilentDataCorruption   — output wrong and nothing flagged it: the
//                            outcome mitigation exists to prevent;
//   SystemFailure          — OCEAN restore met an uncorrectable
//                            protected-buffer word (quintuple error).
//
// Runs execute on a persistent work-stealing Executor; each worker owns
// a private PlatformPool (platform arenas are reused across grid cells
// via Platform::reset) and every platform shares one ModelTableCache
// (the access-curve memo), so throughput scales with the grid instead
// of with platform construction.  Every run's state is a pure function of its
// grid cell — a reused platform is reset to exactly the state a fresh
// one would have — so the ledger is byte-identical whatever the thread
// count, whoever stole which cell, and however often run() is repeated.
// The ledger is exported as CSV or JSON for the bench harness.
#pragma once

#include <complex>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/executor.hpp"
#include "common/units.hpp"
#include "energy/memory_calculator.hpp"
#include "faultsim/scenario.hpp"
#include "faultsim/shard.hpp"
#include "mitigation/scheme.hpp"
#include "ocean/runtime.hpp"

namespace ntc::reliability {
class ModelTableCache;
}
namespace ntc::sim {
class PlatformPool;
struct PlatformConfig;
}
namespace ntc::multitile {
class TiledPool;
struct TiledPlatformConfig;
}

namespace ntc::faultsim {

class BatchEngine;
struct BatchStats;

enum class RunOutcome {
  Clean,
  Corrected,
  DetectedUncorrectable,
  SilentDataCorruption,
  SystemFailure,
};

const char* to_string(RunOutcome outcome);

/// One multi-tile platform configuration on the campaign's scheme axis:
/// `tiles` cores with per-tile mitigation share a `banks`-way banked
/// scratchpad behind the arbitrated interconnect, and every trial runs
/// the sharded FFT instead of the sequential one.
struct TileMixSpec {
  std::uint32_t tiles = 1;  ///< power of two
  std::uint32_t banks = 1;  ///< power of two
  /// Per-tile schemes; shorter lists cycle across the tiles, empty
  /// defaults to SECDED everywhere.
  std::vector<mitigation::SchemeKind> schemes;
  /// Ledger scheme-column label; derived when empty.  A 1-tile/1-bank
  /// mix takes the classic scheme name ("OCEAN", ...), which is what
  /// keeps its ledger byte-identical to the classic platform path;
  /// larger mixes read "t4b2:secded+ocean+...".
  std::string name;
};

/// The spelled-out form of a mix: schemes cycle-extended to one entry
/// per tile, the name derived when empty.  CampaignRunner normalizes
/// its config through this at construction, and config_fingerprint
/// hashes through it, so fingerprints taken before and after
/// normalization agree (same contract as the implicit background
/// scenario).
TileMixSpec normalize_tile_mix(TileMixSpec mix);

struct CampaignConfig {
  std::vector<Volt> voltages{Volt{0.44}};
  std::vector<mitigation::SchemeKind> schemes{mitigation::SchemeKind::Secded};
  /// Multi-tile grid points, appended after `schemes` on the scheme
  /// axis (the grid iterates schemes first, then mixes, so a classic
  /// config's shard plan — and its fingerprint — is untouched when this
  /// is empty).
  std::vector<TileMixSpec> tile_mixes;
  /// Scripted scenarios; when empty a single no-event "background"
  /// scenario runs (stochastic model only).
  std::vector<Scenario> scenarios;
  std::uint64_t base_seed = 1;
  std::uint32_t seeds_per_cell = 4;
  std::size_t fft_points = 256;  ///< paper uses 1024; tests shrink it
  energy::MemoryStyle style = energy::MemoryStyle::CellBasedImec40;
  Hertz clock{290.0e3};
  /// Keep the analytic stochastic fault model active underneath the
  /// scripted events (false = scripted faults only).
  bool stochastic_background = true;
  /// OCEAN protocol knobs, including the voltage-escalation path.
  ocean::OceanConfig ocean;
  unsigned threads = 0;  ///< 0 = hardware concurrency
};

struct RunRecord {
  std::string scenario;
  std::string scheme;
  double vdd = 0.0;
  std::uint64_t seed = 0;
  RunOutcome outcome = RunOutcome::Clean;
  double snr_db = 0.0;
  std::uint64_t corrected_words = 0;
  std::uint64_t uncorrectable_words = 0;
  std::uint64_t injected_flips = 0;  ///< stochastic read+write flips, all arrays
  std::uint64_t stuck_bits = 0;
  std::uint64_t scenario_events_fired = 0;
  std::uint64_t ocean_restores = 0;
  std::uint64_t ocean_voltage_escalations = 0;
  std::uint64_t cycles = 0;
  /// Tile-cycles lost to bank contention (multi-tile mixes; always 0 on
  /// the classic single-core path).  Appended last so classic ledgers
  /// keep their field order.
  std::uint64_t contention_cycles = 0;
};

/// The outcome rule every engine applies to a finished trial: a system
/// failure dominates; a wrong output is detected-uncorrectable when the
/// mitigation flagged it (an uncorrectable word or a faulted phase) and
/// silent otherwise; an exact output is corrected when the record shows
/// any fault activity and clean when it shows none.
RunOutcome classify_outcome(const RunRecord& record, bool system_failure,
                            bool output_ok, std::uint64_t faulted_phases);

struct CampaignSummary {
  std::uint64_t runs = 0;
  std::uint64_t clean = 0;
  std::uint64_t corrected = 0;
  std::uint64_t detected_uncorrectable = 0;
  std::uint64_t silent_data_corruption = 0;
  std::uint64_t system_failure = 0;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig config);
  ~CampaignRunner();
  CampaignRunner(const CampaignRunner&) = delete;
  CampaignRunner& operator=(const CampaignRunner&) = delete;

  /// Execute the full grid; returns the ledger ordered by grid cell.
  /// Repeatable: subsequent calls reuse the parked executor workers and
  /// the pooled platforms and produce an identical ledger.
  const std::vector<RunRecord>& run();

  const std::vector<RunRecord>& records() const { return records_; }
  CampaignSummary summary() const;

  // --- shard-level execution (run() and the CampaignService are both
  // built on these) -------------------------------------------------

  /// The deterministic shard decomposition of this runner's grid (the
  /// config as normalized at construction).  0 = one shard per cell.
  ShardPlan shard_plan(std::uint32_t seeds_per_shard = 0) const;

  /// Compute the golden reference and spin up the executor + pool
  /// slots.  Idempotent; must be called (once, from one thread) before
  /// any concurrent execute_shard_trial() use — run() and the
  /// CampaignService do so.
  void prepare();

  /// Execute trial `offset` of `shard` (seed = shard.seed_begin +
  /// offset) on worker `worker`'s pooled platform.  Safe to call
  /// concurrently for distinct workers after prepare().
  RunRecord execute_shard_trial(const Shard& shard, std::uint32_t offset,
                                unsigned worker);

  /// Execute trials [offset, offset + count) of `shard` into
  /// out[0..count): the batched replay engine (faultsim/batch.hpp)
  /// handles eligible shards while sim::batch_enabled(); trials it
  /// peels — and every trial of ineligible shards, or with the
  /// kill-switch off — run through the scalar execute_shard_trial
  /// reference path.  Byte-identical to `count` scalar calls, with the
  /// same concurrency contract.
  void execute_shard_trials(const Shard& shard, std::uint32_t offset,
                            std::uint32_t count, unsigned worker,
                            RunRecord* out);

  /// Preferred trial-chunk width for execute_shard_trials callers that
  /// interleave durable appends with execution (the CampaignService):
  /// the NTC_BATCH_TRIALS environment override, default 64, clamped to
  /// [1, 4096] at prepare().
  std::uint32_t batch_chunk_width(const Shard& shard) const;

  /// Batch-path counters (all zero before prepare() or with the engine
  /// never engaged).
  BatchStats batch_stats() const;

  /// The persistent executor (prepare() creates it on first use).
  Executor& executor();

  const CampaignConfig& config() const { return config_; }

  /// Machine-readable ledger exports for the bench harness.
  void write_csv(std::ostream& out) const;
  void write_json(std::ostream& out) const;

  /// Atomic path-based exports (write to `<path>.tmp`, fsync, rename):
  /// a crash mid-export never leaves a truncated ledger that looks
  /// complete.  Return false when the write failed.
  bool save_csv(const std::string& path) const;
  bool save_json(const std::string& path) const;
  bool save_telemetry_jsonl(const std::string& path) const;

  /// Telemetry side-ledger: the recorded trace as JSON lines (build
  /// record first, then one event per line).  Empty unless telemetry
  /// was enabled for the run; kept separate from write_json because
  /// trace timings are wall-clock (not byte-deterministic).
  void write_telemetry_jsonl(std::ostream& out) const;

 private:
  RunRecord execute_one(const Scenario& scenario,
                        mitigation::SchemeKind scheme, Volt vdd,
                        std::uint64_t seed, sim::PlatformPool& pool) const;
  /// The multi-tile counterpart: runs the sharded FFT on the mix's
  /// TiledPlatform (pooled per worker, keyed by mix index).
  RunRecord execute_one_tiled(const Scenario& scenario, std::size_t mix_index,
                              Volt vdd, std::uint64_t seed,
                              multitile::TiledPool& pool) const;
  void compute_golden();
  sim::PlatformConfig platform_base_config() const;
  multitile::TiledPlatformConfig tiled_base_config(
      const TileMixSpec& mix) const;

  CampaignConfig config_;
  std::vector<std::complex<double>> signal_;
  std::vector<std::complex<double>> reference_;  ///< double-precision FFT
  std::vector<std::uint32_t> golden_;            ///< fault-free output words
  bool golden_computed_ = false;
  std::vector<RunRecord> records_;

  /// Campaign-wide access-curve memo shared by every platform.
  std::shared_ptr<reliability::ModelTableCache> tables_;
  /// Trace-replay batch engine (built at prepare(); one per runner so
  /// captured traces are shared by every worker).
  std::unique_ptr<BatchEngine> batch_;
  std::uint32_t batch_width_ = 64;  ///< NTC_BATCH_TRIALS, parsed once
  /// Parked between run() calls; created on first use.
  std::unique_ptr<Executor> executor_;
  /// One private pool per executor worker (index = worker id).
  std::vector<std::unique_ptr<sim::PlatformPool>> pools_;
  /// Per-worker TiledPlatform pools (slot key = tile-mix index); only
  /// populated when the config carries tile mixes.
  std::vector<std::unique_ptr<multitile::TiledPool>> tiled_pools_;
};

}  // namespace ntc::faultsim
