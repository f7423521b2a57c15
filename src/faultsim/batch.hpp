// Batched Monte-Carlo engine for the campaign hot loop.
//
// A campaign grid cell runs the *same* deterministic workload (the
// fixed-point FFT's address stream and compute-cycle charges are
// data-independent) K times with only the Monte-Carlo seed varying, so
// almost everything a scalar trial does — platform construction, FFT
// arithmetic, per-word ECC decode of overwhelmingly clean words — is
// recomputation of seed-invariant state.  The engine factors a grid
// cell's execution into
//
//   * a golden transaction trace, captured once per mitigation scheme
//     from a fault-free run (EccMemory::TraceSink): the ordered list of
//     logical memory transactions the workload issues, the golden data
//     every read returns, and the deterministic cycle total;
//   * a per-trial replay that draws each array's fault state with the
//     same sim::FaultDraw the scalar path's StochasticInjector wraps,
//     over the stream Platform::reset gives that array — both engines
//     call one sampler, so they draw the same stuck cells and flips by
//     construction — and pushes it through the trace's error algebra.
//     Only *dirty* words (nonzero raw error) are decoded, through the
//     word-direct decode_words kernels.
//
// A trial stays on the batch path while every traced read decodes to
// the golden data with status Ok/Corrected.  Anything else — an
// uncorrectable word, a miscorrection, a raw flip under NoMitigation —
// means downstream data, control flow (OCEAN restores) or the record
// would diverge from the trace, so the trial "peels": its batch state
// is discarded and the scalar execute_shard_trial path, which remains
// the reference implementation, reruns it authoritatively.
//
// Byte-identity contract: for every trial the engine either produces a
// RunRecord byte-identical to the scalar path's or peels.  The
// sim::set_batch_enabled kill-switch forces everything scalar; the
// equivalence suite diffs full ledgers across both settings, and the
// golden ledger suite pins their bytes.
//
// Captured traces are seed-invariant, so they live in a process-wide
// cache (the reliability::ModelTableCache pattern) keyed by every
// input the capture reads: runners over the same workload shape and
// platform geometry share one immutable capture instead of re-running
// the fault-free workload each.
#pragma once

#include <atomic>
#include <complex>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "faultsim/campaign.hpp"
#include "faultsim/shard.hpp"
#include "sim/platform.hpp"

namespace ntc::reliability {
class ModelTableCache;
}
namespace ntc::ecc {
class BlockCode;
}

namespace ntc::faultsim {

/// Batch-path counters (process totals for this engine instance).
struct BatchStats {
  std::uint64_t batched_trials = 0;     ///< trials attempted on the batch path
  std::uint64_t convergent_trials = 0;  ///< completed without peeling
  std::uint64_t peeled_trials = 0;      ///< diverged, rerun scalar
};

class BatchEngine {
 public:
  /// `base_platform` is the runner's platform_base_config(): the engine
  /// derives array geometries/models from it and builds its fault-free
  /// capture platforms on it.  `golden` must already be computed.
  BatchEngine(const CampaignConfig& config, sim::PlatformConfig base_platform,
              const std::vector<std::complex<double>>& signal,
              const std::vector<std::complex<double>>& reference,
              const std::vector<std::uint32_t>& golden,
              std::shared_ptr<reliability::ModelTableCache> tables);
  ~BatchEngine();
  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  /// Is this shard's grid cell batchable at all?  Scripted scenario
  /// events arm on access counters and mutate injector state the trace
  /// replay does not model, so only the implicit no-event "background"
  /// scenario qualifies.
  bool eligible(const Shard& shard) const;

  /// Replay trials [offset, offset + count) of `shard` into
  /// out[0..count).  Trials that diverge are appended to `peel` (as
  /// offsets relative to `offset`) and their out slots left untouched —
  /// the caller reruns them on the scalar path.  Thread-safe after the
  /// first call per scheme has returned (per-scheme capture is
  /// internally serialized).
  void run_batch(const Shard& shard, std::uint32_t offset,
                 std::uint32_t count, RunRecord* out,
                 std::vector<std::uint32_t>& peel);

  BatchStats stats() const;

  // Implementation types, public so the capture helpers in batch.cpp's
  // anonymous namespace (trace sinks, the recording port) can reference
  // them; both are defined there and opaque to other translation units.
  struct SchemeState;
  struct ArrayParams;

 private:
  std::string trace_key(mitigation::SchemeKind kind) const;
  SchemeState& scheme_state(std::uint32_t scheme_index);
  void capture_scheme(SchemeState& state, mitigation::SchemeKind kind);
  void capture_plain(SchemeState& state, mitigation::SchemeKind kind);
  void capture_ocean(SchemeState& state);
  /// Replay one trial into the default-constructed `out`; false when
  /// the trial diverges from the trace and must peel.
  bool replay_trial(const SchemeState& state, Volt vdd, std::uint64_t seed,
                    RunRecord& out) const;

  const CampaignConfig& config_;
  sim::PlatformConfig base_platform_;
  const std::vector<std::complex<double>>& signal_;
  const std::vector<std::complex<double>>& reference_;
  const std::vector<std::uint32_t>& golden_;
  std::shared_ptr<reliability::ModelTableCache> tables_;
  double golden_snr_db_ = 0.0;

  /// Shared with every engine whose trace_key matches; the per-state
  /// once_flag serializes the (single, process-wide) capture.
  std::vector<std::shared_ptr<SchemeState>> schemes_;

  mutable std::atomic<std::uint64_t> batched_trials_{0};
  mutable std::atomic<std::uint64_t> convergent_trials_{0};
  mutable std::atomic<std::uint64_t> peeled_trials_{0};
};

}  // namespace ntc::faultsim
