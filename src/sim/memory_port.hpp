// Word-addressed memory port: the interface between execution engines
// (the RISC core, the execution-driven workloads) and the simulated
// memory subsystem.
#pragma once

#include <cstdint>
#include <span>

namespace ntc::sim {

/// Status of one memory transaction as seen by the initiator.
enum class AccessStatus {
  Ok,
  CorrectedError,        ///< ECC corrected on the fly
  DetectedUncorrectable, ///< error detected, data invalid (trap/rollback)
};

/// Aggregate of two per-word statuses: the worse one wins
/// (DetectedUncorrectable > CorrectedError > Ok).
constexpr AccessStatus worse_status(AccessStatus a, AccessStatus b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

/// Process-wide kill switch for the native burst implementations: when
/// disabled, every read_burst/write_burst override delegates to the
/// word-at-a-time base-class fallback.  The burst-vs-scalar equivalence
/// suite runs identical workloads under both settings and requires
/// byte-identical platform state — native bursts must preserve the
/// per-word path's RNG draw order, counters and energy exactly.
void set_burst_native_enabled(bool enabled);
bool burst_native_enabled();

/// Process-wide kill switch for the batched Monte-Carlo campaign
/// engine (faultsim/batch).  When disabled, CampaignRunner executes
/// every trial on the scalar execute_shard_trial reference path.  The
/// batched engine must produce per-trial ledger records byte-identical
/// to the scalar path; this switch exists for the equivalence harness
/// and as an operational escape hatch.
void set_batch_enabled(bool enabled);
bool batch_enabled();

class MemoryPort {
 public:
  virtual ~MemoryPort() = default;

  /// Word index addressing (not bytes); the platform's bus handles the
  /// address map.
  virtual AccessStatus read_word(std::uint32_t word_index,
                                 std::uint32_t& data) = 0;
  virtual AccessStatus write_word(std::uint32_t word_index,
                                  std::uint32_t data) = 0;
  virtual std::uint32_t word_count() const = 0;

  /// Burst transaction over [word_index, word_index + data.size()).
  /// The default decomposes into word accesses; native overrides must
  /// be observably identical to that decomposition (same fault-model
  /// RNG consumption, same counters, same returned data) and report
  /// the worst per-word status.  A burst whose end would pass the
  /// 32-bit word-index space is rejected (NTC_REQUIRE), never wrapped.
  virtual AccessStatus read_burst(std::uint32_t word_index,
                                  std::span<std::uint32_t> data);
  virtual AccessStatus write_burst(std::uint32_t word_index,
                                   std::span<const std::uint32_t> data);

  /// read_burst that also counts the words that decoded as
  /// DetectedUncorrectable into `uncorrectable`.  Every word is read
  /// once, in ascending order, so the draws and counters are those of
  /// read_burst.  The default counts word by word.
  virtual AccessStatus read_burst_counted(std::uint32_t word_index,
                                          std::span<std::uint32_t> data,
                                          std::uint64_t& uncorrectable);
};

}  // namespace ntc::sim
