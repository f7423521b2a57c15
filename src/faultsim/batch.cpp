#include "faultsim/batch.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/assert.hpp"
#include "common/fixed_point.hpp"
#include "common/simd.hpp"
#include "ecc/bch.hpp"
#include "ecc/hamming.hpp"
#include "energy/memory_calculator.hpp"
#include "ocean/runtime.hpp"
#include "sim/fault_draw.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/fft.hpp"
#include "workloads/golden.hpp"

namespace ntc::faultsim {

namespace {

/// The SECDED code instance used to encode golden raws and decode dirty
/// words during replay.  Platform keeps its own shared singleton, but
/// the codec is stateless and deterministic, so a second instance is
/// bit-identical; a function-local static spares rebuilding the decode
/// tables per engine.
const ecc::HammingSecded& replay_secded() {
  static const ecc::HammingSecded code(32);
  return code;
}

inline std::uint64_t popcount64(std::uint64_t x) {
  return static_cast<std::uint64_t>(__builtin_popcountll(x));
}

}  // namespace

/// Everything seed-invariant about one array of the traced platform.
struct BatchEngine::ArrayParams {
  reliability::AccessErrorModel access;
  reliability::NoiseMarginModel retention;
  std::uint32_t words;
  std::uint32_t stored_bits;
  sim::ArrayKind kind;
};

/// One logical memory transaction of the golden trace.
struct BatchEngine::SchemeState {
  struct Txn {
    bool is_write = false;
    std::uint32_t base = 0;
    std::uint32_t count = 0;
    std::uint32_t offset = 0;  ///< index into spm_logical / spm_raw
  };

  std::once_flag once;
  bool valid = false;
  std::string scheme_name;
  bool coded_spm = false;  ///< SPM words carry the SECDED code
  std::uint64_t cycles = 0;

  /// SPM transactions in program order with the golden data: the
  /// logical word every read returned / every write stored, plus its
  /// raw (encoded) image for the error algebra.
  std::vector<Txn> spm_txns;
  std::vector<std::uint32_t> spm_logical;
  std::vector<std::uint64_t> spm_raw;

  /// The PM is write-only on the convergent OCEAN path (restores never
  /// run), so its replay needs only the flip-draw sequence length.
  std::uint64_t pm_write_words = 0;
  bool pm_read_seen = false;  ///< capture saw a PM read -> not batchable

  std::optional<ArrayParams> spm;
  std::optional<ArrayParams> imem;
  std::optional<ArrayParams> pm;

  void add_spm(bool is_write, std::uint32_t base, const std::uint32_t* data,
               std::uint32_t count) {
    spm_logical.insert(spm_logical.end(), data, data + count);
    if (!spm_txns.empty()) {
      Txn& prev = spm_txns.back();
      if (prev.is_write == is_write && base == prev.base + prev.count) {
        prev.count += count;
        return;
      }
    }
    spm_txns.push_back(Txn{is_write, base, count,
                           static_cast<std::uint32_t>(spm_logical.size()) -
                               count});
  }
};

namespace {

/// TraceSink adapter feeding SchemeState::add_spm.
struct SpmTraceSink final : sim::EccMemory::TraceSink {
  explicit SpmTraceSink(BatchEngine::SchemeState& state) : state(state) {}
  void on_access(bool is_write, std::uint32_t base, const std::uint32_t* data,
                 std::uint32_t count) override {
    state.add_spm(is_write, base, data, count);
  }
  BatchEngine::SchemeState& state;
};

/// PM sink: the convergent replay only needs the write-word sequence
/// length; any read disqualifies the trace (it would mean a restore ran
/// on the fault-free capture, i.e. the trace is not convergent).
struct PmTraceSink final : sim::EccMemory::TraceSink {
  explicit PmTraceSink(BatchEngine::SchemeState& state) : state(state) {}
  void on_access(bool is_write, std::uint32_t base, const std::uint32_t* data,
                 std::uint32_t count) override {
    (void)base, (void)data;
    if (is_write) {
      state.pm_write_words += count;
    } else {
      state.pm_read_seen = true;
    }
  }
  BatchEngine::SchemeState& state;
};

/// Fault-free in-memory scratchpad that records the transaction stream:
/// the capture vehicle for the non-OCEAN schemes, where no platform
/// machinery is needed at all — the FFT's address stream and data are
/// what the trace consists of.
struct RecordingPort final : sim::MemoryPort {
  RecordingPort(std::uint32_t words, BatchEngine::SchemeState& state)
      : store(words, 0), state(state) {}

  sim::AccessStatus read_word(std::uint32_t word_index,
                              std::uint32_t& data) override {
    data = store[word_index];
    state.add_spm(false, word_index, &data, 1);
    return sim::AccessStatus::Ok;
  }
  sim::AccessStatus write_word(std::uint32_t word_index,
                               std::uint32_t data) override {
    store[word_index] = data;
    state.add_spm(true, word_index, &data, 1);
    return sim::AccessStatus::Ok;
  }
  std::uint32_t word_count() const override {
    return static_cast<std::uint32_t>(store.size());
  }
  sim::AccessStatus read_burst(std::uint32_t word_index,
                               std::span<std::uint32_t> data) override {
    std::copy_n(store.begin() + word_index, data.size(), data.begin());
    state.add_spm(false, word_index, data.data(),
                  static_cast<std::uint32_t>(data.size()));
    return sim::AccessStatus::Ok;
  }
  sim::AccessStatus write_burst(std::uint32_t word_index,
                                std::span<const std::uint32_t> data) override {
    std::copy(data.begin(), data.end(), store.begin() + word_index);
    state.add_spm(true, word_index, data.data(),
                  static_cast<std::uint32_t>(data.size()));
    return sim::AccessStatus::Ok;
  }

  std::vector<std::uint32_t> store;
  BatchEngine::SchemeState& state;
};

/// Process-wide registry of captured traces (the ModelTableCache
/// pattern): a capture is seed-invariant, so runners over the same
/// workload shape and platform geometry share one immutable
/// SchemeState.  Entries are tiny (the trace of one workload run) and
/// the key space is bounded by the distinct configurations a process
/// runs, so nothing is ever evicted.
struct TraceCacheEntry {
  std::mutex mutex;
  std::unordered_map<std::string, std::shared_ptr<BatchEngine::SchemeState>>
      traces;
};

TraceCacheEntry& trace_cache() {
  static TraceCacheEntry cache;
  return cache;
}

BatchEngine::ArrayParams make_array_params(energy::MemoryStyle style,
                                           std::uint32_t bytes,
                                           std::uint32_t stored_bits,
                                           sim::ArrayKind kind) {
  energy::MemoryCalculator calc(style, energy::MemoryGeometry{bytes / 4, 32});
  return BatchEngine::ArrayParams{calc.access_model(), calc.retention_model(),
                                  bytes / 4, stored_bits, kind};
}

}  // namespace

BatchEngine::BatchEngine(const CampaignConfig& config,
                         sim::PlatformConfig base_platform,
                         const std::vector<std::complex<double>>& signal,
                         const std::vector<std::complex<double>>& reference,
                         const std::vector<std::uint32_t>& golden,
                         std::shared_ptr<reliability::ModelTableCache> tables)
    : config_(config),
      base_platform_(std::move(base_platform)),
      signal_(signal),
      reference_(reference),
      golden_(golden),
      tables_(std::move(tables)) {
  NTC_REQUIRE(golden_.size() == config_.fft_points);
  // The convergent-trial SNR: every trial whose readback decodes to the
  // golden words measures exactly this value, computed with the same
  // unpack/scale expressions as the scalar readback loop.
  const double scale = 1.0 / static_cast<double>(config_.fft_points);
  std::vector<std::complex<double>> measured(config_.fft_points);
  for (std::size_t i = 0; i < config_.fft_points; ++i) {
    const ComplexQ15 q = ComplexQ15::unpack(golden_[i]);
    measured[i] =
        std::complex<double>(q.re.to_double(), q.im.to_double()) / scale;
  }
  golden_snr_db_ = workloads::snr_db(measured, reference_);

  schemes_.reserve(config_.schemes.size());
  TraceCacheEntry& cache = trace_cache();
  for (std::size_t i = 0; i < config_.schemes.size(); ++i) {
    const std::string key = trace_key(config_.schemes[i]);
    std::lock_guard<std::mutex> lock(cache.mutex);
    std::shared_ptr<SchemeState>& slot = cache.traces[key];
    if (!slot) slot = std::make_shared<SchemeState>();
    schemes_.push_back(slot);
  }
}

std::string BatchEngine::trace_key(mitigation::SchemeKind kind) const {
  // Everything the capture reads must appear here: the workload shape
  // (fft_points determines the campaign signal and with it the golden
  // image), the platform geometry and technology the array models
  // derive from, the capture supply and clock (OCEAN cycle totals),
  // and the OCEAN protocol knobs that shape the checkpoint/CRC
  // transaction stream.  A config field the capture starts reading
  // later must join this key.
  const ocean::OceanConfig& oc = config_.ocean;
  char key[256];
  std::snprintf(
      key, sizeof key,
      "%d|%zu|%d|%a|%a|%u|%u|%u|%u|%llu|%a|%u|%a|%a", static_cast<int>(kind),
      config_.fft_points, static_cast<int>(base_platform_.memory_style),
      base_platform_.clock.value, base_platform_.vdd.value,
      base_platform_.spm_bytes, base_platform_.imem_bytes,
      base_platform_.pm_bytes, oc.max_restore_attempts,
      static_cast<unsigned long long>(oc.crc_cycles_per_word),
      oc.fetches_per_cycle, oc.max_voltage_escalations,
      oc.escalation_step.value, oc.escalation_vmax.value);
  return key;
}

BatchEngine::~BatchEngine() = default;

bool BatchEngine::eligible(const Shard& shard) const {
  // Tile-mix cells (scheme axis past the classic schemes) run the
  // sharded multi-tile path, which the single-platform trace replay
  // does not model.
  if (shard.scheme_index >= config_.schemes.size()) return false;
  // Scripted scenario events arm on array access counters and mutate
  // one-shot injector state the trace replay does not model; only the
  // implicit no-event "background" scenario is batchable.
  const Scenario& scenario = config_.scenarios[shard.scenario_index];
  return scenario.spm_events.empty() && scenario.imem_events.empty() &&
         scenario.pm_events.empty();
}

BatchEngine::SchemeState& BatchEngine::scheme_state(
    std::uint32_t scheme_index) {
  SchemeState& state = *schemes_[scheme_index];
  std::call_once(state.once, [&] {
    capture_scheme(state, config_.schemes[scheme_index]);
  });
  return state;
}

void BatchEngine::capture_scheme(SchemeState& state,
                                 mitigation::SchemeKind kind) {
  // The capture is infrastructure, not the simulation under observation
  // (same policy as the golden-reference pass).
  NTC_TELEM_MUTE(mute);
  if (kind == mitigation::SchemeKind::Ocean) {
    capture_ocean(state);
  } else {
    capture_plain(state, kind);
  }
  if (!state.valid) return;
  // Pre-encode the golden raw image of every traced word once: replay
  // only ever XORs per-trial errors onto these.
  state.spm_raw.resize(state.spm_logical.size());
  if (state.coded_spm) {
    replay_secded().encode_words(state.spm_logical.data(),
                                 state.spm_logical.size(),
                                 state.spm_raw.data());
  } else {
    std::copy(state.spm_logical.begin(), state.spm_logical.end(),
              state.spm_raw.begin());
  }
}

void BatchEngine::capture_plain(SchemeState& state,
                                mitigation::SchemeKind kind) {
  const bool secded = kind == mitigation::SchemeKind::Secded;
  state.scheme_name = secded ? mitigation::secded_scheme().name
                             : mitigation::no_mitigation().name;
  state.coded_spm = secded;
  state.spm = make_array_params(base_platform_.memory_style,
                                base_platform_.spm_bytes, secded ? 39 : 32,
                                sim::ArrayKind::Spm);
  state.imem = make_array_params(base_platform_.memory_style,
                                 base_platform_.imem_bytes, secded ? 39 : 32,
                                 sim::ArrayKind::Imem);

  workloads::FixedPointFft fft(config_.fft_points);
  fft.set_input(signal_);
  RecordingPort port(base_platform_.spm_bytes / 4, state);
  fft.initialize(port);
  std::uint64_t cycles = 0;
  bool memory_fault = false;
  for (std::size_t phase = 0; phase < fft.phase_count(); ++phase) {
    const workloads::PhaseResult result = fft.run_phase(phase, port);
    cycles += result.compute_cycles;
    memory_fault = memory_fault || result.memory_fault;
  }
  // The scalar trial's readback pass traverses the memory path too —
  // synthesize the identical word-sequence read.
  std::vector<std::uint32_t> readback(config_.fft_points);
  for (std::size_t i = 0; i < config_.fft_points; ++i)
    port.read_word(static_cast<std::uint32_t>(i), readback[i]);
  state.cycles = cycles;
  state.valid = !memory_fault && readback == golden_;
}

void BatchEngine::capture_ocean(SchemeState& state) {
  state.scheme_name = mitigation::ocean_scheme().name;
  state.coded_spm = true;  // SPM keeps SECDED under OCEAN
  state.spm = make_array_params(base_platform_.memory_style,
                                base_platform_.spm_bytes, 39,
                                sim::ArrayKind::Spm);
  state.imem = make_array_params(base_platform_.memory_style,
                                 base_platform_.imem_bytes, 39,
                                 sim::ArrayKind::Imem);
  const std::uint32_t pm_bits =
      static_cast<std::uint32_t>(ecc::ocean_buffer_code().code_bits());
  state.pm = make_array_params(base_platform_.memory_style,
                               base_platform_.pm_bytes, pm_bits,
                               sim::ArrayKind::Pm);

  // The OCEAN protocol interleaves checkpoint DMA and CRC sweeps with
  // the workload, so the trace is captured from a real (fault-free)
  // platform run with sinks on both arrays.
  sim::PlatformConfig pc = base_platform_;
  pc.scheme = mitigation::SchemeKind::Ocean;
  pc.inject_faults = false;
  sim::Platform platform(pc);
  SpmTraceSink spm_sink(state);
  PmTraceSink pm_sink(state);
  platform.spm().set_trace_sink(&spm_sink);
  platform.pm()->set_trace_sink(&pm_sink);

  workloads::FixedPointFft fft(config_.fft_points);
  fft.set_input(signal_);
  ocean::OceanRuntime runtime(platform, config_.ocean);
  const ocean::OceanRunOutcome outcome = runtime.run(fft);

  std::vector<std::uint32_t> readback(config_.fft_points);
  for (std::size_t i = 0; i < config_.fft_points; ++i)
    platform.spm().read_word(static_cast<std::uint32_t>(i), readback[i]);
  platform.spm().set_trace_sink(nullptr);
  platform.pm()->set_trace_sink(nullptr);

  state.cycles = platform.total_cycles();
  state.valid = outcome.completed && !outcome.system_failure &&
                outcome.stats.crc_mismatches == 0 &&
                outcome.stats.restores == 0 && !state.pm_read_seen &&
                readback == golden_;
}

bool BatchEngine::replay_trial(const SchemeState& state, Volt vdd,
                               std::uint64_t seed, RunRecord& out) const {
  // Each array's fault state, drawn by the sampler the scalar path's
  // StochasticInjector wraps, over the stream Platform::reset gives it.
  const auto draw = [&](const ArrayParams& ap) {
    sim::FaultDraw fault(ap.access, ap.retention, ap.words, ap.stored_bits,
                         tables_.get(), sim::array_stream(seed, ap.kind));
    if (base_platform_.inject_faults) fault.set_vdd(vdd);
    out.stuck_bits += fault.stuck_bits();
    return fault;
  };

  // Instruction memory: never accessed by the execution-driven FFT
  // (fetches are charged as counts, not transactions), so it
  // contributes only its stuck-cell population to the record.
  draw(*state.imem);

  // Protected memory: write-only on the convergent path, so the replay
  // reduces to the write-flip draw sequence (masks are counted but no
  // word is ever read back).
  if (state.pm) {
    sim::FaultDraw pm = draw(*state.pm);
    if (pm.p_access() > 0.0)
      pm.scan_flips(state.pm_write_words,
                    [&](std::uint64_t, std::uint64_t mask) {
                      out.injected_flips += popcount64(mask);
                    });
  }

  // --- scratchpad: the traced transaction walk.
  sim::FaultDraw spm = draw(*state.spm);
  const std::vector<sim::StuckWord>& stuck = spm.stuck();

  // Persistent word errors relative to the golden raw image.  The array
  // reset commits the stuck overlay into the zeroed words, so a stuck
  // word deviates by its stuck value until first (re)written; after a
  // write the deviation is exactly the write-flip mask.
  std::map<std::uint32_t, std::uint64_t> werr;
  for (const sim::StuckWord& sw : stuck)
    if (sw.value != 0) werr.emplace(sw.word, sw.value);

  const bool draws = spm.p_access() > 0.0;

  std::vector<std::pair<std::uint32_t, std::uint64_t>> txn_flips;
  std::vector<std::uint32_t> dirty_words;
  std::vector<std::uint64_t> dirty_raw;
  std::vector<std::uint32_t> dirty_data;
  std::vector<std::uint32_t> decode_words_idx;
  // Column (SoA) buffers for the vectorized deviation algebra.
  std::vector<std::uint64_t> dev_golden, dev_werr, dev_mask, dev_value,
      dev_flip, dev_error;

  for (const SchemeState::Txn& txn : state.spm_txns) {
    const std::uint32_t end = txn.base + txn.count;
    txn_flips.clear();
    if (draws) {
      spm.scan_flips(txn.count, [&](std::uint64_t at, std::uint64_t mask) {
        txn_flips.emplace_back(static_cast<std::uint32_t>(at), mask);
        out.injected_flips += popcount64(mask);
      });
    }
    if (txn.is_write) {
      // Every written word latches cleanly except where a write flip
      // landed: clean writes erase the word's persistent error, flipped
      // ones replace it with the flip mask.
      if (!werr.empty())
        werr.erase(werr.lower_bound(txn.base), werr.lower_bound(end));
      for (const auto& [at, mask] : txn_flips) werr[txn.base + at] = mask;
      continue;
    }

    // Read: gather the words whose raw image can deviate from golden.
    const auto stuck_it = std::lower_bound(
        stuck.begin(), stuck.end(), txn.base,
        [](const sim::StuckWord& sw, std::uint32_t w) { return sw.word < w; });
    const bool stuck_in_range =
        stuck_it != stuck.end() && stuck_it->word < end;
    const auto werr_it = werr.lower_bound(txn.base);
    const bool werr_in_range = werr_it != werr.end() && werr_it->first < end;
    if (txn_flips.empty() && !stuck_in_range && !werr_in_range) continue;

    dirty_words.clear();
    for (auto it = stuck_it; it != stuck.end() && it->word < end; ++it)
      dirty_words.push_back(it->word);
    for (auto it = werr_it; it != werr.end() && it->first < end; ++it)
      dirty_words.push_back(it->first);
    for (const auto& [at, mask] : txn_flips)
      dirty_words.push_back(txn.base + at);
    std::sort(dirty_words.begin(), dirty_words.end());
    dirty_words.erase(std::unique(dirty_words.begin(), dirty_words.end()),
                      dirty_words.end());

    // Gather the algebra inputs into columns, then sweep them with the
    // vector kernel: raw-as-read = ((golden ^ werr) & ~m | v) ^ flip,
    // so its deviation from the golden raw is
    //   (we & ~m) ^ ((golden_raw & m) ^ v) ^ flip.
    const std::size_t total = dirty_words.size();
    dev_golden.resize(total);
    dev_werr.resize(total);
    dev_mask.resize(total);
    dev_value.resize(total);
    dev_flip.resize(total);
    dev_error.resize(total);
    for (std::size_t wi = 0; wi < total; ++wi) {
      const std::uint32_t word = dirty_words[wi];
      const sim::StuckWord stuck_word = spm.stuck_word(word);
      std::uint64_t we = 0;
      if (const auto wit = werr.find(word); wit != werr.end())
        we = wit->second;
      std::uint64_t flip = 0;
      const auto fit = std::lower_bound(
          txn_flips.begin(), txn_flips.end(), word - txn.base,
          [](const auto& a, std::uint32_t at) { return a.first < at; });
      if (fit != txn_flips.end() && fit->first == word - txn.base)
        flip = fit->second;
      dev_golden[wi] = state.spm_raw[txn.offset + (word - txn.base)];
      dev_werr[wi] = we;
      dev_mask[wi] = stuck_word.mask;
      dev_value[wi] = stuck_word.value;
      dev_flip[wi] = flip;
    }
    dirty_raw.clear();
    decode_words_idx.clear();
    for (std::size_t base = 0; base < total; base += 64) {
      const std::size_t n = std::min<std::size_t>(64, total - base);
      const std::uint64_t dirty = simd::deviation_sweep(
          dev_golden.data() + base, dev_werr.data() + base,
          dev_mask.data() + base, dev_value.data() + base,
          dev_flip.data() + base, n, dev_error.data() + base);
      if (dirty == 0) continue;
      if (!state.coded_spm) return false;  // bare word corrupted -> peel
      for (std::uint64_t bits = dirty; bits != 0; bits &= bits - 1) {
        const std::size_t idx =
            base + static_cast<std::size_t>(std::countr_zero(bits));
        dirty_raw.push_back(dev_golden[idx] ^ dev_error[idx]);
        decode_words_idx.push_back(dirty_words[idx]);
      }
    }
    if (dirty_raw.empty()) continue;
    dirty_data.resize(dirty_raw.size());
    ecc::BatchDecodeSummary summary;
    replay_secded().decode_words(dirty_raw.data(), dirty_raw.size(),
                                 dirty_data.data(), summary);
    if (summary.uncorrectable_words > 0) return false;
    for (std::size_t i = 0; i < decode_words_idx.size(); ++i) {
      const std::uint32_t word = decode_words_idx[i];
      if (dirty_data[i] != state.spm_logical[txn.offset + (word - txn.base)])
        return false;  // miscorrection: downstream data diverges
    }
    out.corrected_words += summary.corrected_words;
  }

  // Convergent: every traced read returned the golden data, so the
  // outcome, SNR and cycle count are the trace's.
  out.vdd = vdd.value;
  out.seed = seed;
  out.snr_db = golden_snr_db_;
  out.cycles = state.cycles;
  out.outcome = classify_outcome(out, /*system_failure=*/false,
                                 /*output_ok=*/true, /*faulted_phases=*/0);
  return true;
}

void BatchEngine::run_batch(const Shard& shard, std::uint32_t offset,
                            std::uint32_t count, RunRecord* out,
                            std::vector<std::uint32_t>& peel) {
  NTC_REQUIRE(shard.scheme_index < config_.schemes.size());
  NTC_REQUIRE(static_cast<std::uint64_t>(offset) + count <=
              shard.trial_count);
  SchemeState& state = scheme_state(shard.scheme_index);
  batched_trials_.fetch_add(count, std::memory_order_relaxed);
  if (!state.valid) {
    for (std::uint32_t k = 0; k < count; ++k) peel.push_back(k);
    peeled_trials_.fetch_add(count, std::memory_order_relaxed);
    return;
  }
  const Scenario& scenario = config_.scenarios[shard.scenario_index];
  const Volt vdd = config_.voltages[shard.voltage_index];
  std::uint32_t convergent = 0;
  for (std::uint32_t k = 0; k < count; ++k) {
    RunRecord record;
    if (replay_trial(state, vdd, shard.seed_begin + offset + k, record)) {
      record.scenario = scenario.name;
      record.scheme = state.scheme_name;
      out[k] = std::move(record);
      ++convergent;
    } else {
      peel.push_back(k);
    }
  }
  convergent_trials_.fetch_add(convergent, std::memory_order_relaxed);
  peeled_trials_.fetch_add(count - convergent, std::memory_order_relaxed);
  if (convergent > 0) {
    // Keep the one-trace-event-per-trial invariant the scalar path
    // establishes, but settle the whole chunk with a single bulk record
    // — a per-trial ScopedSpan inside the replay loop costs two clock
    // reads per trial, which showed up as >3% campaign overhead.
    // Peeled trials get their span from the scalar rerun.
    NTC_TELEM_EVENTS(telemetry::EventKind::CampaignTrial, "campaign_trial",
                     convergent, shard.seed_begin + offset, 0);
    // The scalar path counts trials one by one; the batch path settles
    // its convergent trials in bulk (peeled ones are re-counted by the
    // scalar rerun).
    NTC_TELEM_COUNT("ntc_campaign_trials_total", convergent);
    NTC_TELEM_COUNT("ntc_batch_trials_total", convergent);
  }
  if (count - convergent > 0)
    NTC_TELEM_COUNT("ntc_batch_peeled_trials_total", count - convergent);
}

BatchStats BatchEngine::stats() const {
  BatchStats stats;
  stats.batched_trials = batched_trials_.load(std::memory_order_relaxed);
  stats.convergent_trials =
      convergent_trials_.load(std::memory_order_relaxed);
  stats.peeled_trials = peeled_trials_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace ntc::faultsim
