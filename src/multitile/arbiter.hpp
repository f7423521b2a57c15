// Arbitrated interconnect between tiles and the banked shared memory.
//
// The simulator stays execution-driven (memory accesses complete
// immediately, data-wise); the arbiter models *time*.  Each tile logs
// its shared-memory requests (bank + beat count, consecutive same-bank
// beats coalesced into one grant) and its compute cycles into the
// current epoch; at a barrier the epoch is replayed event-driven:
//
//   * every tile replays its requests in issue order behind a private
//     clock starting at 0;
//   * a request is granted at max(tile clock, bank free time) — the
//     difference is the tile's stall — and occupies the bank for
//     `beats + arbitration_latency` cycles;
//   * when several tiles are ready at the same instant the grant order
//     is the configured policy: round-robin (rotating pointer) or fixed
//     priority (lowest tile id wins).  The grant scan starts at the
//     pointer and wraps without a division.
//
// A tile's epoch duration is its compute cycles plus its stalls; the
// epoch costs the slowest tile's duration (barrier semantics), and the
// platform's total cycle count is the sum of epoch makespans.  With one
// tile no request ever waits, so the model degenerates to plain compute
// accumulation — the classic single-core accounting.  The replay is
// pure integer bookkeeping over the logged order, so cycle counts are
// deterministic for a given trial regardless of host thread count.
#pragma once

#include <cstdint>
#include <vector>

namespace ntc::multitile {

enum class ArbitrationPolicy : std::uint8_t { RoundRobin, FixedPriority };

struct ArbiterConfig {
  std::uint32_t tiles = 1;
  std::uint32_t banks = 1;
  ArbitrationPolicy policy = ArbitrationPolicy::RoundRobin;
  /// Extra cycles the interconnect charges per granted request.
  std::uint32_t arbitration_latency = 0;
};

struct ArbiterStats {
  std::uint64_t epochs = 0;
  std::uint64_t requests = 0;  ///< grants (coalesced bank runs)
  std::uint64_t beats = 0;     ///< words moved through the interconnect
  std::uint64_t contention_cycles = 0;  ///< total stall across all tiles
  std::uint64_t makespan_cycles = 0;    ///< sum of epoch maxima
};

class Arbiter {
 public:
  explicit Arbiter(ArbiterConfig config);

  /// Log `beats` consecutive words of tile traffic to `bank` in the
  /// current epoch (coalesced with the tile's previous request when it
  /// targets the same bank).
  void log_access(std::uint32_t tile, std::uint32_t bank, std::uint32_t beats);
  /// Log compute cycles of `tile` in the current epoch.
  void add_compute(std::uint32_t tile, std::uint64_t cycles);

  /// Close the epoch: replay the logged requests, account stalls, and
  /// return the epoch makespan (slowest tile's compute + stall).
  std::uint64_t end_epoch();

  /// Makespan the pending (un-barriered) epoch would contribute if it
  /// held no contention — the compute maximum.  Lets total_cycles()
  /// stay meaningful between barriers.
  std::uint64_t pending_compute_max() const;

  const ArbiterStats& stats() const { return stats_; }
  const std::vector<std::uint64_t>& tile_stall_cycles() const {
    return tile_stall_;
  }
  const std::vector<std::uint64_t>& bank_busy_cycles() const {
    return bank_busy_;
  }
  const ArbiterConfig& config() const { return config_; }

  /// Drop pending epoch state and zero every counter.
  void reset();

 private:
  struct Request {
    std::uint32_t bank = 0;
    std::uint32_t beats = 0;
  };

  ArbiterConfig config_;
  std::vector<std::vector<Request>> pending_;   ///< per tile, issue order
  std::vector<std::uint64_t> epoch_compute_;    ///< per tile
  /// Round-robin grant pointer (persists epochs; stays 0 under fixed
  /// priority).
  std::uint32_t rr_ = 0;
  ArbiterStats stats_;
  std::vector<std::uint64_t> tile_stall_;  ///< cumulative per tile
  std::vector<std::uint64_t> bank_busy_;   ///< cumulative per bank
};

}  // namespace ntc::multitile
