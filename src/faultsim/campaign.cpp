#include "faultsim/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <span>
#include <sstream>

#include "common/assert.hpp"
#include "common/atomic_file.hpp"
#include "common/fixed_point.hpp"
#include "faultsim/batch.hpp"
#include "faultsim/ledger.hpp"
#include "multitile/sharded_fft.hpp"
#include "multitile/tiled_pool.hpp"
#include "reliability/model_tables.hpp"
#include "sim/platform.hpp"
#include "sim/platform_pool.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/fft.hpp"
#include "workloads/golden.hpp"

namespace ntc::faultsim {

namespace {

/// The two-tone test signal of the Figure 8/9 benches.
std::vector<std::complex<double>> campaign_signal(std::size_t n) {
  std::vector<std::complex<double>> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n);
    x[i] = 0.28 * std::sin(2.0 * M_PI * 17.0 * t) +
           0.18 * std::cos(2.0 * M_PI * 101.0 * t);
  }
  return x;
}

/// The scripted injectors living on a pooled platform's arrays, rearmed
/// per grid cell (kept alive through the pool slot's client_state).
struct InjectorSet {
  std::shared_ptr<ScenarioInjector> spm;
  std::shared_ptr<ScenarioInjector> imem;
  std::shared_ptr<ScenarioInjector> pm;  ///< null unless the platform has a PM
};

/// Per-array injectors of a pooled TiledPlatform: one per shared-memory
/// bank, one per tile I-mem, one per OCEAN tile PM.
struct TiledInjectorSet {
  std::vector<std::shared_ptr<ScenarioInjector>> banks;
  std::vector<std::shared_ptr<ScenarioInjector>> imems;
  std::vector<std::shared_ptr<ScenarioInjector>> pms;  ///< null per non-OCEAN tile
};

/// Translate a scenario's scratchpad script onto the banked arrays.
/// Word-addressed events land on the bank the interleave map assigns
/// their word (the event's word becomes the in-bank offset); column
/// faults are physical per-array defects and replicate on every bank.
/// At one bank the map is the identity, so the classic script arrives
/// verbatim — the 1x1 ledger-identity hinge.  Row spans are NOT split
/// across banks: a RowStuck models a physical row defect, which after
/// banking lives inside one array.
std::vector<std::vector<FaultEvent>> split_spm_events(
    const std::vector<FaultEvent>& events,
    const multitile::BankedMemory& banks) {
  std::vector<std::vector<FaultEvent>> out(banks.bank_count());
  for (const FaultEvent& e : events) {
    if (e.kind == FaultEvent::Kind::ColumnStuck) {
      for (auto& bank_events : out) bank_events.push_back(e);
    } else {
      const multitile::BankAddress a = banks.map(e.word);
      FaultEvent moved = e;
      moved.word = a.offset;
      out[a.bank].push_back(moved);
    }
  }
  return out;
}

/// Plain array standing in for the reference platform's scratchpad: at
/// NoMitigation with injection off the memory path is bit-transparent
/// storage, so the golden pass needs no platform at all.
struct GoldenPort final : sim::MemoryPort {
  explicit GoldenPort(std::uint32_t words) : store(words, 0) {}
  sim::AccessStatus read_word(std::uint32_t word_index,
                              std::uint32_t& data) override {
    data = store[word_index];
    return sim::AccessStatus::Ok;
  }
  sim::AccessStatus write_word(std::uint32_t word_index,
                               std::uint32_t data) override {
    store[word_index] = data;
    return sim::AccessStatus::Ok;
  }
  std::uint32_t word_count() const override {
    return static_cast<std::uint32_t>(store.size());
  }
  std::vector<std::uint32_t> store;
};

/// Add a decoder's corrected and uncorrectable words to a ledger row.
void tally(RunRecord& record, const sim::EccMemoryStats& codec) {
  record.corrected_words += codec.corrected_words;
  record.uncorrectable_words += codec.uncorrectable_words;
}

/// Add an SRAM array's injected flips and stuck bits to a ledger row.
void tally(RunRecord& record, const sim::SramStats& array) {
  record.injected_flips +=
      array.injected_read_flips + array.injected_write_flips;
  record.stuck_bits += array.stuck_bits;
}

/// Both, for a memory that owns its array (null: the array is absent).
void tally(RunRecord& record, const sim::EccMemory* mem) {
  if (mem == nullptr) return;
  tally(record, mem->stats());
  tally(record, mem->array().stats());
}

}  // namespace

TileMixSpec normalize_tile_mix(TileMixSpec mix) {
  NTC_REQUIRE_MSG(mix.tiles >= 1 && (mix.tiles & (mix.tiles - 1)) == 0,
                  "tile count must be a power of two");
  NTC_REQUIRE_MSG(mix.banks >= 1 && (mix.banks & (mix.banks - 1)) == 0,
                  "bank count must be a power of two");
  if (mix.schemes.empty())
    mix.schemes.push_back(mitigation::SchemeKind::Secded);
  NTC_REQUIRE_MSG(mix.schemes.size() <= mix.tiles,
                  "more per-tile schemes than tiles");
  const std::size_t given = mix.schemes.size();
  for (std::size_t t = given; t < mix.tiles; ++t)
    mix.schemes.push_back(mix.schemes[t % given]);
  if (mix.name.empty()) {
    if (mix.tiles == 1 && mix.banks == 1) {
      // The degenerate mix IS the classic platform; carrying the classic
      // scheme name keeps its ledger rows byte-identical.
      switch (mix.schemes.front()) {
        case mitigation::SchemeKind::Secded:
          mix.name = mitigation::secded_scheme().name;
          break;
        case mitigation::SchemeKind::Ocean:
          mix.name = mitigation::ocean_scheme().name;
          break;
        default:
          mix.name = mitigation::no_mitigation().name;
          break;
      }
    } else {
      char prefix[32];
      std::snprintf(prefix, sizeof prefix, "t%ub%u:",
                    static_cast<unsigned>(mix.tiles),
                    static_cast<unsigned>(mix.banks));
      mix.name = prefix;
      for (std::size_t t = 0; t < mix.schemes.size(); ++t) {
        if (t > 0) mix.name += '+';
        mix.name += mitigation::to_string(mix.schemes[t]);
      }
    }
  }
  return mix;
}

RunOutcome classify_outcome(const RunRecord& record, bool system_failure,
                            bool output_ok, std::uint64_t faulted_phases) {
  if (system_failure) return RunOutcome::SystemFailure;
  const bool detected = record.uncorrectable_words > 0 || faulted_phases > 0;
  if (!output_ok)
    return detected ? RunOutcome::DetectedUncorrectable
                    : RunOutcome::SilentDataCorruption;
  const bool any_fault_activity =
      detected || record.corrected_words > 0 || record.injected_flips > 0 ||
      record.stuck_bits > 0 || record.scenario_events_fired > 0 ||
      record.ocean_restores > 0;
  return any_fault_activity ? RunOutcome::Corrected : RunOutcome::Clean;
}

const char* to_string(RunOutcome outcome) {
  switch (outcome) {
    case RunOutcome::Clean: return "clean";
    case RunOutcome::Corrected: return "corrected";
    case RunOutcome::DetectedUncorrectable: return "detected-uncorrectable";
    case RunOutcome::SilentDataCorruption: return "silent-data-corruption";
    case RunOutcome::SystemFailure: return "system-failure";
  }
  return "?";
}

CampaignRunner::CampaignRunner(CampaignConfig config)
    : config_(std::move(config)),
      tables_(std::make_shared<reliability::ModelTableCache>()) {
  NTC_REQUIRE(!config_.voltages.empty());
  NTC_REQUIRE(!config_.schemes.empty() || !config_.tile_mixes.empty());
  NTC_REQUIRE(config_.seeds_per_cell >= 1);
  NTC_REQUIRE(config_.fft_points >= 4 &&
              (config_.fft_points & (config_.fft_points - 1)) == 0);
  for (TileMixSpec& mix : config_.tile_mixes) {
    mix = normalize_tile_mix(std::move(mix));
    NTC_REQUIRE_MSG(config_.fft_points % mix.tiles == 0 &&
                        config_.fft_points / mix.tiles >= 4,
                    "tile mix needs at least 4 FFT points per tile");
  }
  if (config_.scenarios.empty())
    config_.scenarios.push_back(Scenario{"background", {}, {}, {}});
  signal_ = campaign_signal(config_.fft_points);
  reference_ = workloads::reference_fft(signal_);
}

CampaignRunner::~CampaignRunner() = default;

sim::PlatformConfig CampaignRunner::platform_base_config() const {
  sim::PlatformConfig pc;
  pc.memory_style = config_.style;
  pc.vdd = config_.voltages.front();
  pc.clock = config_.clock;
  pc.spm_bytes = std::max<std::uint32_t>(
      8 * 1024, static_cast<std::uint32_t>(config_.fft_points) * 4);
  pc.pm_bytes = static_cast<std::uint32_t>(config_.fft_points) * 8;
  pc.seed = config_.base_seed;
  pc.inject_faults = config_.stochastic_background;
  pc.tables = tables_;
  return pc;
}

void CampaignRunner::compute_golden() {
  // Fault-free reference pass: the fixed-point pipeline is
  // deterministic, so one golden image serves every grid cell (and, the
  // config being fixed at construction, every run() call).  A bare
  // array replaces the NoMitigation platform this used to build — the
  // fault-free raw path stores and returns words verbatim, so the image
  // is bit-identical and prepare() sheds a whole platform construction.
  if (golden_computed_) return;
  // Muted like the batch engine's golden record pass: the fault-free
  // reference run's workload spans are not campaign telemetry, and the
  // clock reads they cost show up as pure overhead on small grids.
  NTC_TELEM_MUTE(mute);
  GoldenPort port(platform_base_config().spm_bytes / 4);
  workloads::FixedPointFft fft(config_.fft_points);
  fft.set_input(signal_);
  fft.initialize(port);
  for (std::size_t phase = 0; phase < fft.phase_count(); ++phase)
    (void)fft.run_phase(phase, port);

  golden_.resize(config_.fft_points);
  for (std::size_t i = 0; i < config_.fft_points; ++i)
    port.read_word(static_cast<std::uint32_t>(i), golden_[i]);
  golden_computed_ = true;
}

RunRecord CampaignRunner::execute_one(const Scenario& scenario,
                                      mitigation::SchemeKind scheme, Volt vdd,
                                      std::uint64_t seed,
                                      sim::PlatformPool& pool) const {
  RunRecord record;
  record.scenario = scenario.name;
  record.vdd = vdd.value;
  record.seed = seed;
  NTC_TELEM_SPAN(trial_span, telemetry::EventKind::CampaignTrial,
                 "campaign_trial");

  // A pooled platform plus rearm/reset is observationally identical to
  // the fresh platform-per-run this replaces: the scripted injectors
  // are reprogrammed with this cell's script, then reset re-derives the
  // whole fault state over this cell's seed and supply.
  sim::PlatformPool::Slot& slot = pool.acquire(scheme);
  sim::Platform& platform = *slot.platform;
  if (!slot.client_state) {
    auto injectors = std::make_shared<InjectorSet>();
    injectors->spm =
        std::make_shared<ScenarioInjector>(std::vector<FaultEvent>{});
    injectors->imem =
        std::make_shared<ScenarioInjector>(std::vector<FaultEvent>{});
    platform.spm().array().attach_injector(injectors->spm);
    platform.imem().array().attach_injector(injectors->imem);
    if (platform.pm() != nullptr) {
      injectors->pm =
          std::make_shared<ScenarioInjector>(std::vector<FaultEvent>{});
      platform.pm()->array().attach_injector(injectors->pm);
    }
    slot.client_state = injectors;
  }
  InjectorSet& injectors =
      *static_cast<InjectorSet*>(slot.client_state.get());
  ScenarioInjector& spm_injector = *injectors.spm;
  ScenarioInjector& imem_injector = *injectors.imem;
  ScenarioInjector* pm_injector = injectors.pm.get();
  spm_injector.rearm(scenario.spm_events);
  imem_injector.rearm(scenario.imem_events);
  if (pm_injector != nullptr) pm_injector->rearm(scenario.pm_events);
  platform.reset(seed, vdd);
  record.scheme = platform.scheme().name;

  workloads::FixedPointFft fft(config_.fft_points);
  fft.set_input(signal_);

  bool system_failure = false;
  std::uint64_t faulted_phases = 0;
  if (scheme == mitigation::SchemeKind::Ocean) {
    ocean::OceanRuntime runtime(platform, config_.ocean);
    const ocean::OceanRunOutcome outcome = runtime.run(fft);
    system_failure = outcome.system_failure;
    record.ocean_restores = outcome.stats.restores;
    record.ocean_voltage_escalations = outcome.stats.voltage_escalations;
    faulted_phases = outcome.stats.crc_mismatches;
  } else {
    faulted_phases = ocean::run_unprotected(platform, fft);
  }

  // One readback pass serves both the golden comparison and the SNR —
  // it traverses the faulty memory path, so read-time corruption of the
  // result is classified like any other fault.
  std::vector<std::uint32_t> measured_words(config_.fft_points);
  std::vector<std::complex<double>> measured(config_.fft_points);
  for (std::size_t i = 0; i < config_.fft_points; ++i) {
    platform.spm().read_word(static_cast<std::uint32_t>(i), measured_words[i]);
    const ComplexQ15 q = ComplexQ15::unpack(measured_words[i]);
    measured[i] = std::complex<double>(q.re.to_double(), q.im.to_double()) /
                  fft.output_scale();
  }
  record.snr_db = workloads::snr_db(measured, reference_);
  record.cycles = platform.total_cycles();

  tally(record, &platform.spm());
  tally(record, &platform.imem());
  tally(record, platform.pm());
  record.scenario_events_fired =
      spm_injector.events_fired() + imem_injector.events_fired() +
      (pm_injector != nullptr ? pm_injector->events_fired() : 0);
  record.outcome = classify_outcome(record, system_failure,
                                    measured_words == golden_, faulted_phases);
  trial_span.set_args(seed, static_cast<std::uint64_t>(record.outcome));
  NTC_TELEM_COUNT("ntc_campaign_trials_total", 1);
  return record;
}

multitile::TiledPlatformConfig CampaignRunner::tiled_base_config(
    const TileMixSpec& mix) const {
  multitile::TiledPlatformConfig tc;
  tc.memory_style = config_.style;
  tc.tile_schemes = mix.schemes;
  tc.banks = mix.banks;
  tc.vdd = config_.voltages.front();
  tc.clock = config_.clock;
  // Same geometry rules as platform_base_config: a 1-tile/1-bank mix
  // must build byte-for-byte the arrays the classic platform builds.
  tc.shared_bytes = std::max<std::uint32_t>(
      8 * 1024, static_cast<std::uint32_t>(config_.fft_points) * 4);
  tc.pm_bytes = static_cast<std::uint32_t>(config_.fft_points) * 8;
  tc.seed = config_.base_seed;
  tc.inject_faults = config_.stochastic_background;
  tc.tables = tables_;
  return tc;
}

RunRecord CampaignRunner::execute_one_tiled(const Scenario& scenario,
                                            std::size_t mix_index, Volt vdd,
                                            std::uint64_t seed,
                                            multitile::TiledPool& pool) const {
  const TileMixSpec& mix = config_.tile_mixes[mix_index];
  RunRecord record;
  record.scenario = scenario.name;
  record.vdd = vdd.value;
  record.seed = seed;
  NTC_TELEM_SPAN(trial_span, telemetry::EventKind::CampaignTrial,
                 "campaign_trial");

  multitile::TiledPool::Slot& slot =
      pool.acquire(mix_index, [&] { return tiled_base_config(mix); });
  multitile::TiledPlatform& platform = *slot.platform;
  if (!slot.client_state) {
    auto injectors = std::make_shared<TiledInjectorSet>();
    injectors->banks.resize(platform.bank_count());
    for (std::uint32_t b = 0; b < platform.bank_count(); ++b) {
      injectors->banks[b] =
          std::make_shared<ScenarioInjector>(std::vector<FaultEvent>{});
      platform.shared().banks().bank(b).attach_injector(injectors->banks[b]);
    }
    injectors->imems.resize(platform.tile_count());
    injectors->pms.resize(platform.tile_count());
    for (std::uint32_t t = 0; t < platform.tile_count(); ++t) {
      injectors->imems[t] =
          std::make_shared<ScenarioInjector>(std::vector<FaultEvent>{});
      platform.imem(t).array().attach_injector(injectors->imems[t]);
      if (platform.pm(t) != nullptr) {
        injectors->pms[t] =
            std::make_shared<ScenarioInjector>(std::vector<FaultEvent>{});
        platform.pm(t)->array().attach_injector(injectors->pms[t]);
      }
    }
    slot.client_state = injectors;
  }
  TiledInjectorSet& injectors =
      *static_cast<TiledInjectorSet*>(slot.client_state.get());
  // Scratchpad events route through the bank map; each private I-mem
  // (and each OCEAN PM) replays the classic per-array script, so every
  // tile faces the fault environment the single-core platform faced.
  const std::vector<std::vector<FaultEvent>> per_bank =
      split_spm_events(scenario.spm_events, platform.shared().banks());
  for (std::uint32_t b = 0; b < platform.bank_count(); ++b)
    injectors.banks[b]->rearm(per_bank[b]);
  for (std::uint32_t t = 0; t < platform.tile_count(); ++t) {
    injectors.imems[t]->rearm(scenario.imem_events);
    if (injectors.pms[t]) injectors.pms[t]->rearm(scenario.pm_events);
  }
  platform.reset(seed, vdd);
  record.scheme = mix.name;

  multitile::ShardedFft fft(platform, config_.fft_points, config_.ocean);
  fft.set_input(signal_);
  const multitile::ShardedFft::RunResult run = fft.run();
  record.ocean_restores = run.ocean_restores;
  record.ocean_voltage_escalations = run.ocean_voltage_escalations;
  // OCEAN tiles signal detection through CRC mismatches, unprotected
  // tiles (and the cross-shard stages) through faulted phases — the
  // union is the classic "detected" signal.
  const std::uint64_t faulted_phases = run.faulted_phases + run.crc_mismatches;

  // Readback in logical order through the decoding shared-memory path,
  // exactly like the classic readback through the scratchpad: each
  // shard is contiguous in its region, so it reads as one burst.
  std::vector<std::uint32_t> measured_words(config_.fft_points);
  std::vector<std::complex<double>> measured(config_.fft_points);
  const std::uint32_t shard_words = fft.shard_words();
  for (std::uint32_t first = 0; first < config_.fft_points;
       first += shard_words) {
    platform.shared().read_burst(
        fft.physical_index(first),
        std::span(measured_words).subspan(first, shard_words));
  }
  for (std::size_t i = 0; i < config_.fft_points; ++i) {
    const ComplexQ15 q = ComplexQ15::unpack(measured_words[i]);
    measured[i] = std::complex<double>(q.re.to_double(), q.im.to_double()) /
                  fft.output_scale();
  }
  record.snr_db = workloads::snr_db(measured, reference_);
  record.cycles = platform.total_cycles();
  record.contention_cycles = platform.contention_cycles();

  for (std::size_t r = 0; r < platform.shared().region_count(); ++r)
    tally(record, platform.shared().region(r).stats);
  for (std::uint32_t b = 0; b < platform.bank_count(); ++b)
    tally(record, platform.shared().banks().bank(b).stats());
  for (std::uint32_t t = 0; t < platform.tile_count(); ++t) {
    tally(record, &platform.imem(t));
    tally(record, platform.pm(t));
  }
  for (const auto& injector : injectors.banks)
    record.scenario_events_fired += injector->events_fired();
  for (const auto& injector : injectors.imems)
    record.scenario_events_fired += injector->events_fired();
  for (const auto& injector : injectors.pms)
    if (injector) record.scenario_events_fired += injector->events_fired();

  record.outcome = classify_outcome(record, run.system_failure,
                                    measured_words == golden_, faulted_phases);
  trial_span.set_args(seed, static_cast<std::uint64_t>(record.outcome));
  NTC_TELEM_COUNT("ntc_campaign_trials_total", 1);
  return record;
}

ShardPlan CampaignRunner::shard_plan(std::uint32_t seeds_per_shard) const {
  return make_shard_plan(config_, seeds_per_shard);
}

void CampaignRunner::prepare() {
  compute_golden();
  // Workers and their platform pools persist across run() calls: the
  // executor parks between jobs instead of being respawned, and each
  // worker resets its pooled platforms rather than rebuilding them.
  if (!executor_) {
    executor_ = std::make_unique<Executor>(config_.threads);
    pools_.resize(executor_->worker_count());
    tiled_pools_.resize(executor_->worker_count());
  }
  if (!batch_) {
    if (const char* env = std::getenv("NTC_BATCH_TRIALS")) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(env, &end, 10);
      if (end != env && *end == '\0' && v > 0)
        batch_width_ = static_cast<std::uint32_t>(
            std::min<unsigned long>(v, 4096));
    }
    batch_ = std::make_unique<BatchEngine>(config_, platform_base_config(),
                                           signal_, reference_, golden_,
                                           tables_);
  }
}

Executor& CampaignRunner::executor() {
  prepare();
  return *executor_;
}

RunRecord CampaignRunner::execute_shard_trial(const Shard& shard,
                                              std::uint32_t offset,
                                              unsigned worker) {
  NTC_REQUIRE(golden_computed_ && worker < pools_.size());
  NTC_REQUIRE(offset < shard.trial_count);
  NTC_REQUIRE(shard.scenario_index < config_.scenarios.size());
  NTC_REQUIRE(shard.scheme_index <
              config_.schemes.size() + config_.tile_mixes.size());
  NTC_REQUIRE(shard.voltage_index < config_.voltages.size());
  if (shard.scheme_index >= config_.schemes.size()) {
    auto& tiled_pool = tiled_pools_[worker];
    if (!tiled_pool) tiled_pool = std::make_unique<multitile::TiledPool>();
    return execute_one_tiled(config_.scenarios[shard.scenario_index],
                             shard.scheme_index - config_.schemes.size(),
                             config_.voltages[shard.voltage_index],
                             shard.seed_begin + offset, *tiled_pool);
  }
  auto& pool = pools_[worker];
  if (!pool)
    pool = std::make_unique<sim::PlatformPool>(platform_base_config());
  return execute_one(config_.scenarios[shard.scenario_index],
                     config_.schemes[shard.scheme_index],
                     config_.voltages[shard.voltage_index],
                     shard.seed_begin + offset, *pool);
}

void CampaignRunner::execute_shard_trials(const Shard& shard,
                                          std::uint32_t offset,
                                          std::uint32_t count, unsigned worker,
                                          RunRecord* out) {
  if (count == 0) return;
  if (!sim::batch_enabled() || !batch_ || !batch_->eligible(shard)) {
    for (std::uint32_t k = 0; k < count; ++k)
      out[k] = execute_shard_trial(shard, offset + k, worker);
    return;
  }
  std::vector<std::uint32_t> peel;
  batch_->run_batch(shard, offset, count, out, peel);
  for (const std::uint32_t k : peel)
    out[k] = execute_shard_trial(shard, offset + k, worker);
}

std::uint32_t CampaignRunner::batch_chunk_width(const Shard& shard) const {
  (void)shard;
  return batch_width_;
}

BatchStats CampaignRunner::batch_stats() const {
  return batch_ ? batch_->stats() : BatchStats{};
}

const std::vector<RunRecord>& CampaignRunner::run() {
  prepare();
  // One shard per grid cell: trial i of the flat grid is trial
  // i % seeds_per_cell of shard i / seeds_per_cell, and record_base
  // arithmetic makes the two enumerations coincide exactly — the
  // in-process ledger and a merged shard-service ledger are the same
  // bytes by construction, not by test luck.
  const ShardPlan plan = shard_plan();
  records_.assign(plan.total_records, RunRecord{});
  const std::uint32_t spc = config_.seeds_per_cell;
  // Work items are batch-width trial chunks so eligible cells go
  // through the trace-replay engine.  Each record remains a pure
  // function of its grid cell (batched trials are byte-identical to
  // scalar ones; platforms are reset to a seed-determined state before
  // every scalar run), so the ledger is identical whatever the worker
  // count, the chunking, and whoever stole what.
  const std::uint32_t width = std::min(batch_width_, spc);
  const std::size_t chunks_per_shard = (spc + width - 1) / width;
  executor_->parallel_for(
      plan.shards.size() * chunks_per_shard,
      [&](std::size_t i, unsigned worker) {
        const Shard& shard = plan.shards[i / chunks_per_shard];
        const std::uint32_t offset =
            static_cast<std::uint32_t>(i % chunks_per_shard) * width;
        const std::uint32_t count = std::min(width, spc - offset);
        execute_shard_trials(shard, offset, count, worker,
                             records_.data() + shard.record_base + offset);
      });
  return records_;
}

CampaignSummary CampaignRunner::summary() const {
  return summarize_records(records_);
}

// The formatters live in faultsim/ledger.cpp so the ledger_merge tool
// emits the exact same bytes from reduced binary segments.
void CampaignRunner::write_csv(std::ostream& out) const {
  write_ledger_csv(out, records_);
}

void CampaignRunner::write_json(std::ostream& out) const {
  write_ledger_json(out, records_);
}

void CampaignRunner::write_telemetry_jsonl(std::ostream& out) const {
  telemetry::export_jsonl(out);
}

namespace {

template <typename WriteFn>
bool save_atomically(const std::string& path, WriteFn&& write) {
  std::ostringstream out;
  write(out);
  return atomic_write_file(path, out.str());
}

}  // namespace

bool CampaignRunner::save_csv(const std::string& path) const {
  return save_atomically(path, [&](std::ostream& out) { write_csv(out); });
}

bool CampaignRunner::save_json(const std::string& path) const {
  return save_atomically(path, [&](std::ostream& out) { write_json(out); });
}

bool CampaignRunner::save_telemetry_jsonl(const std::string& path) const {
  return save_atomically(path,
                         [&](std::ostream& out) { write_telemetry_jsonl(out); });
}

}  // namespace ntc::faultsim
