#include "multitile/arbiter.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace ntc::multitile {

Arbiter::Arbiter(ArbiterConfig config) : config_(config) {
  NTC_REQUIRE(config_.tiles >= 1 && config_.banks >= 1);
  pending_.resize(config_.tiles);
  epoch_compute_.assign(config_.tiles, 0);
  tile_stall_.assign(config_.tiles, 0);
  bank_busy_.assign(config_.banks, 0);
}

void Arbiter::log_access(std::uint32_t tile, std::uint32_t bank,
                         std::uint32_t beats) {
  NTC_REQUIRE(tile < config_.tiles && bank < config_.banks);
  if (beats == 0) return;
  std::vector<Request>& queue = pending_[tile];
  if (!queue.empty() && queue.back().bank == bank) {
    queue.back().beats += beats;
    return;
  }
  queue.push_back(Request{bank, beats});
}

void Arbiter::add_compute(std::uint32_t tile, std::uint64_t cycles) {
  NTC_REQUIRE(tile < config_.tiles);
  epoch_compute_[tile] += cycles;
}

std::uint64_t Arbiter::pending_compute_max() const {
  std::uint64_t max = 0;
  for (const std::uint64_t c : epoch_compute_) max = std::max(max, c);
  return max;
}

std::uint64_t Arbiter::end_epoch() {
  const std::uint32_t tiles = config_.tiles;
  // Per-tile replay clocks and stall totals, per-bank free times.
  std::vector<std::size_t> next(tiles, 0);
  std::vector<std::uint64_t> clock(tiles, 0);
  std::vector<std::uint64_t> stall(tiles, 0);
  std::vector<std::uint64_t> free_at(config_.banks, 0);
  std::size_t remaining = 0;
  for (const auto& queue : pending_) remaining += queue.size();

  while (remaining > 0) {
    // Grant the tile whose next request is issued earliest; ties go to
    // the configured policy (rotating pointer or lowest tile id).
    // The scan starts at the pointer (0 under fixed priority) and wraps.
    std::uint32_t chosen = tiles;
    std::uint64_t best = ~std::uint64_t{0};
    for (std::uint32_t i = 0, t = rr_; i < tiles; ++i, ++t) {
      if (t == tiles) t = 0;
      if (next[t] >= pending_[t].size()) continue;
      if (clock[t] < best) {
        best = clock[t];
        chosen = t;
      }
    }
    const Request& rq = pending_[chosen][next[chosen]++];
    --remaining;
    const std::uint64_t start = std::max(clock[chosen], free_at[rq.bank]);
    stall[chosen] += start - clock[chosen];
    const std::uint64_t service = rq.beats + config_.arbitration_latency;
    clock[chosen] = start + service;
    free_at[rq.bank] = clock[chosen];
    bank_busy_[rq.bank] += service;
    ++stats_.requests;
    stats_.beats += rq.beats;
    if (config_.policy == ArbitrationPolicy::RoundRobin)
      rr_ = chosen + 1 == tiles ? 0 : chosen + 1;
  }

  std::uint64_t epoch_max = 0;
  std::uint64_t epoch_stall = 0;
  for (std::uint32_t t = 0; t < tiles; ++t) {
    epoch_max = std::max(epoch_max, epoch_compute_[t] + stall[t]);
    epoch_stall += stall[t];
    tile_stall_[t] += stall[t];
    epoch_compute_[t] = 0;
    pending_[t].clear();
  }
  ++stats_.epochs;
  stats_.contention_cycles += epoch_stall;
  stats_.makespan_cycles += epoch_max;
  NTC_TELEM_EVENT(telemetry::EventKind::Span, "arbiter_epoch", epoch_max,
                  epoch_stall);
  NTC_TELEM_COUNT("ntc_arbiter_epochs_total", 1);
  if (epoch_stall > 0)
    NTC_TELEM_COUNT("ntc_arbiter_contention_cycles_total", epoch_stall);
  return epoch_max;
}

void Arbiter::reset() {
  for (auto& queue : pending_) queue.clear();
  std::fill(epoch_compute_.begin(), epoch_compute_.end(), 0);
  std::fill(tile_stall_.begin(), tile_stall_.end(), 0);
  std::fill(bank_busy_.begin(), bank_busy_.end(), 0);
  rr_ = 0;
  stats_ = ArbiterStats{};
}

}  // namespace ntc::multitile
