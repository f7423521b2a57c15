#include "faultsim/scenario.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace ntc::faultsim {

FaultEvent FaultEvent::stuck_at(std::uint32_t word, std::uint64_t bit_mask,
                                std::uint64_t stuck_value, double heal_at_v) {
  FaultEvent e;
  e.kind = Kind::StuckAt;
  e.word = word;
  e.bit_mask = bit_mask;
  e.stuck_value = stuck_value & bit_mask;
  e.heal_at_v = heal_at_v;
  return e;
}

FaultEvent FaultEvent::row_stuck(std::uint32_t first_word, std::uint32_t words,
                                 std::uint64_t bit_mask,
                                 std::uint64_t stuck_value, double heal_at_v) {
  FaultEvent e = stuck_at(first_word, bit_mask, stuck_value, heal_at_v);
  e.kind = Kind::RowStuck;
  e.span = words;
  return e;
}

FaultEvent FaultEvent::column_stuck(std::uint32_t bit, bool value,
                                    double heal_at_v) {
  FaultEvent e;
  e.kind = Kind::ColumnStuck;
  e.bit_mask = std::uint64_t{1} << bit;
  e.stuck_value = value ? e.bit_mask : 0;
  e.heal_at_v = heal_at_v;
  return e;
}

FaultEvent FaultEvent::transient_flip(std::uint32_t word,
                                      std::uint64_t bit_mask,
                                      std::uint64_t at_access) {
  FaultEvent e;
  e.kind = Kind::TransientFlip;
  e.word = word;
  e.bit_mask = bit_mask;
  e.arm_at_access = at_access;
  e.once = true;
  return e;
}

FaultEvent FaultEvent::read_burst(std::uint32_t word, std::uint32_t first_bit,
                                  std::uint32_t k, double heal_at_v) {
  NTC_REQUIRE(k >= 1 && k <= 64 - first_bit);
  FaultEvent e;
  e.kind = Kind::ReadBurst;
  e.word = word;
  e.bit_mask = (k == 64 ? ~std::uint64_t{0}
                        : ((std::uint64_t{1} << k) - 1))
               << first_bit;
  e.heal_at_v = heal_at_v;
  return e;
}

FaultEvent FaultEvent::write_burst(std::uint32_t word, std::uint64_t bit_mask,
                                   bool once) {
  FaultEvent e;
  e.kind = Kind::WriteBurst;
  e.word = word;
  e.bit_mask = bit_mask;
  e.once = once;
  return e;
}

ScenarioInjector::ScenarioInjector(std::vector<FaultEvent> events) {
  rearm(std::move(events));
}

void ScenarioInjector::rearm(std::vector<FaultEvent> events) {
  events_.clear();
  events_.reserve(events.size());
  events_fired_ = 0;
  overlay_stationary_ = true;
  // Flip events cover [word, word + span); the hull is summed in 64 bits
  // and clamped, so it holds every word covers() can match.
  constexpr std::uint64_t kWordLimit = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t flip_begin = kWordLimit, flip_end = 0;
  for (auto& e : events) {
    if (stuck_kind(e.kind)) {
      if (e.arm_at_access != 0 ||
          e.disarm_at_access != std::numeric_limits<std::uint64_t>::max())
        overlay_stationary_ = false;
    } else {
      flip_begin = std::min<std::uint64_t>(flip_begin, e.word);
      flip_end = std::max(flip_end, std::uint64_t{e.word} + e.span);
    }
    events_.push_back(Armed{std::move(e), false});
  }
  flip_span_ = sim::WordSpan{0, 0};
  if (flip_end > flip_begin)
    flip_span_ = {static_cast<std::uint32_t>(flip_begin),
                  static_cast<std::uint32_t>(std::min(flip_end, kWordLimit))};
}

bool ScenarioInjector::stuck_kind(FaultEvent::Kind kind) {
  return kind == FaultEvent::Kind::StuckAt ||
         kind == FaultEvent::Kind::RowStuck ||
         kind == FaultEvent::Kind::ColumnStuck;
}

bool ScenarioInjector::window_open(const FaultEvent& e,
                                   const sim::FaultContext& ctx) {
  return ctx.access_count >= e.arm_at_access &&
         ctx.access_count < e.disarm_at_access;
}

bool ScenarioInjector::covers(const FaultEvent& e, std::uint32_t index,
                              const sim::FaultContext& ctx) {
  if (e.kind == FaultEvent::Kind::ColumnStuck) return index < ctx.words;
  return index >= e.word && index < e.word + e.span;
}

void ScenarioInjector::stuck_overlay(std::uint32_t index,
                                     const sim::FaultContext& ctx,
                                     std::uint64_t& mask,
                                     std::uint64_t& value) {
  overlay_for(index, ctx, mask, value);
}

void ScenarioInjector::overlay_for(std::uint32_t index,
                                   const sim::FaultContext& ctx,
                                   std::uint64_t& mask,
                                   std::uint64_t& value) const {
  mask = 0;
  value = 0;
  for (const Armed& armed : events_) {
    const FaultEvent& e = armed.event;
    if (!stuck_kind(e.kind)) continue;
    if (ctx.vdd.value >= e.heal_at_v) continue;  // healed at this supply
    if (!window_open(e, ctx) || !covers(e, index, ctx)) continue;
    value |= e.stuck_value & e.bit_mask & ~mask;
    mask |= e.bit_mask;
  }
}

std::uint64_t ScenarioInjector::access_flips(sim::AccessKind kind,
                                             std::uint32_t index,
                                             const sim::FaultContext& ctx) {
  std::uint64_t flips = 0;
  for (Armed& armed : events_) {
    const FaultEvent& e = armed.event;
    if (armed.consumed || ctx.vdd.value >= e.heal_at_v ||
        !window_open(e, ctx) || !covers(e, index, ctx))
      continue;
    const bool on_read = kind == sim::AccessKind::Read &&
                         (e.kind == FaultEvent::Kind::TransientFlip ||
                          e.kind == FaultEvent::Kind::ReadBurst);
    const bool on_write = kind == sim::AccessKind::Write &&
                          e.kind == FaultEvent::Kind::WriteBurst;
    if (!on_read && !on_write) continue;
    flips ^= e.bit_mask;
    ++events_fired_;
    if (e.once) armed.consumed = true;
  }
  return flips;
}

std::uint64_t ScenarioInjector::active_stuck_bits(
    const sim::FaultContext& ctx) const {
  std::uint64_t total = 0;
  for (std::uint32_t w = 0; w < ctx.words; ++w) {
    std::uint64_t mask = 0, value = 0;
    overlay_for(w, ctx, mask, value);
    total += static_cast<std::uint64_t>(__builtin_popcountll(mask));
  }
  return total;
}

}  // namespace ntc::faultsim
