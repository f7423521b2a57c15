#include "sim/sram_module.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "sim/stochastic_injector.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace ntc::sim {

SramModule::SramModule(std::string name, std::uint32_t words,
                       std::uint32_t stored_bits,
                       reliability::AccessErrorModel access,
                       reliability::NoiseMarginModel retention, Volt vdd,
                       Rng rng, bool inject_faults,
                       std::shared_ptr<reliability::ModelTableCache> tables)
    : name_(std::move(name)),
      stored_bits_(stored_bits),
      vdd_(vdd),
      inject_faults_(inject_faults),
      data_(words, 0) {
  NTC_REQUIRE(words > 0);
  NTC_REQUIRE(stored_bits >= 1 && stored_bits <= 64);
  if (inject_faults_) {
    stochastic_ = std::make_shared<StochasticInjector>(
        std::move(access), std::move(retention), rng, words, stored_bits_,
        std::move(tables));
    injectors_.push_back(stochastic_);
  }
  derive_fault_state();
}

void SramModule::reset(Volt vdd, Rng rng) {
  NTC_REQUIRE(vdd.value > 0.0);
  vdd_ = vdd;
  std::fill(data_.begin(), data_.end(), 0);
  stats_ = SramStats{};
  if (stochastic_) stochastic_->reseed(rng);
  // One derive replays what construction plus injector attachment did:
  // it re-derives every injector at the new operating point and commits
  // the merged overlay into the zeroed array.
  derive_fault_state();
}

void SramModule::merged_overlay(std::uint32_t index, const FaultContext& ctx,
                                std::uint64_t& mask_bits,
                                std::uint64_t& value_bits) const {
  mask_bits = 0;
  value_bits = 0;
  for (const auto& injector : injectors_) {
    std::uint64_t m = 0, v = 0;
    injector->stuck_overlay(index, ctx, m, v);
    value_bits |= v & m & ~mask_bits;
    mask_bits |= m;
  }
}

std::uint64_t SramModule::gather_flips(AccessKind kind, std::uint32_t index,
                                       const FaultContext& ctx) {
  std::uint64_t flips = 0;
  for (const auto& injector : injectors_)
    flips ^= injector->access_flips(kind, index, ctx);
  return flips;
}

void SramModule::derive_fault_state() {
  ctx_.words = words();
  ctx_.stored_bits = stored_bits_;
  ctx_.vdd = vdd_;
  ctx_.access_count = stats_.reads + stats_.writes;
  for (const auto& injector : injectors_) injector->on_operating_point(ctx_);

  // The merged overlay can be cached per word only while no injector's
  // overlay depends on the access counter; it is re-derived here on
  // every operating-point or chain change, so voltage-dependent stuck
  // state (healing) stays exact.
  overlay_cached_ = true;
  for (const auto& injector : injectors_)
    if (!injector->overlay_is_stationary()) overlay_cached_ = false;
  if (overlay_cached_) {
    overlay_mask_.assign(words(), 0);
    overlay_value_.assign(words(), 0);
  } else {
    overlay_mask_.clear();
    overlay_value_.clear();
  }

  stats_.stuck_bits = 0;
  bool any_overlay = false;
  for (std::uint32_t w = 0; w < words(); ++w) {
    std::uint64_t m = 0, v = 0;
    merged_overlay(w, ctx_, m, v);
    // A forced cell physically flips to its imposed state: commit the
    // loss so data stays corrupted even if the rail is raised again
    // later (drowsy-mode data loss is real).
    data_[w] = (data_[w] & ~m) | (v & m);
    stats_.stuck_bits +=
        static_cast<std::uint64_t>(__builtin_popcountll(m));
    if (overlay_cached_) {
      overlay_mask_[w] = m;
      overlay_value_[w] = v & m;
    }
    any_overlay = any_overlay || m != 0;
  }
  overlay_zero_ = overlay_cached_ && !any_overlay;

  // Access flips are possible whenever the stochastic rate is nonzero
  // or any scripted injector is attached (its burst events arm on the
  // access counter, so assume the worst).
  flips_possible_ = false;
  for (const auto& injector : injectors_) {
    if (injector == stochastic_) {
      if (stochastic_->p_access() > 0.0) flips_possible_ = true;
    } else {
      flips_possible_ = true;
    }
  }
}

void SramModule::set_vdd(Volt vdd) {
  NTC_REQUIRE(vdd.value > 0.0);
  vdd_ = vdd;
  derive_fault_state();
}

void SramModule::attach_injector(std::shared_ptr<FaultInjector> injector) {
  NTC_REQUIRE(injector != nullptr);
  injectors_.push_back(std::move(injector));
  derive_fault_state();
}

double SramModule::access_error_probability() const {
  return stochastic_ ? stochastic_->p_access() : 0.0;
}

std::uint64_t SramModule::read_raw(std::uint32_t index) {
  NTC_REQUIRE(index < words());
  ++stats_.reads;
  ++ctx_.access_count;
  if (!flips_possible_) {
    // Fault-free fast path: no transient flips pending and the stuck
    // overlay is known, so the access is a plain array load.
    if (overlay_zero_) return data_[index] & mask();
    if (overlay_cached_) {
      const std::uint64_t m = overlay_mask_[index];
      return ((data_[index] & ~m) | overlay_value_[index]) & mask();
    }
  }
  std::uint64_t m = 0, v = 0;
  if (overlay_cached_) {
    m = overlay_mask_[index];
    v = overlay_value_[index];
  } else {
    merged_overlay(index, ctx_, m, v);
  }
  const std::uint64_t value = (data_[index] & ~m) | v;
  std::uint64_t flips = 0;
  if (flips_possible_) {
    flips = gather_flips(AccessKind::Read, index, ctx_);
    if (flips != 0) {
      const auto bits = static_cast<std::uint64_t>(__builtin_popcountll(flips));
      stats_.injected_read_flips += bits;
      NTC_TELEM_COUNT("ntc_sram_injected_read_flips_total", bits);
    }
  }
  return (value ^ flips) & mask();
}

template <typename Apply>
std::uint64_t SramModule::burst_flips(AccessKind kind, std::uint32_t index,
                                      std::uint32_t count,
                                      std::uint64_t first_access,
                                      Apply&& apply) {
  // Burst offsets [lo, hi): the hull of the scripted injectors' flip
  // spans.  Outside it only the stochastic model can flip.
  std::uint32_t lo = count, hi = 0;
  for (const auto& injector : injectors_) {
    if (injector == stochastic_) continue;
    const WordSpan span = injector->flip_span();
    const std::uint32_t begin = std::max(span.begin, index);
    const std::uint32_t end = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        span.end, static_cast<std::uint64_t>(index) + count));
    if (begin < end) {
      lo = std::min(lo, begin - index);
      hi = std::max(hi, end - index);
    }
  }
  std::uint64_t flipped_bits = 0;
  const auto land = [&](std::uint32_t i, std::uint64_t flips) {
    apply(i, flips);
    flipped_bits += static_cast<std::uint64_t>(__builtin_popcountll(flips));
  };
  // Injectors keep independent state, so the stochastic draws can all
  // come first: the bulk scan consumes the stream the per-word calls
  // would.  Its masks inside the hull are held back, to be XORed with
  // the scripted masks of the same access before the bits are counted.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> held;
  if (stochastic_ && stochastic_->p_access() > 0.0) {
    stochastic_->draw().scan_flips(
        count, [&](std::uint64_t i, std::uint64_t flips) {
          const auto offset = static_cast<std::uint32_t>(i);
          if (offset >= lo && offset < hi)
            held.emplace_back(offset, flips);
          else
            land(offset, flips);
        });
  }
  FaultContext ctx = ctx_;
  std::size_t next_held = 0;
  for (std::uint32_t i = lo; i < hi; ++i) {
    std::uint64_t flips = 0;
    if (next_held < held.size() && held[next_held].first == i)
      flips = held[next_held++].second;
    const std::uint32_t word = index + i;
    ctx.access_count = first_access + i;
    for (const auto& injector : injectors_) {
      if (injector == stochastic_) continue;
      const WordSpan span = injector->flip_span();
      if (word >= span.begin && word < span.end)
        flips ^= injector->access_flips(kind, word, ctx);
    }
    if (flips != 0) land(i, flips);
  }
  return flipped_bits;
}

void SramModule::read_raw_burst(std::uint32_t index, std::uint64_t* out,
                                std::uint32_t count) {
  NTC_REQUIRE(static_cast<std::uint64_t>(index) + count <= words());
  if (count == 0) return;
  if (!overlay_cached_) {
    // Access-windowed stuck events: the overlay moves with the access
    // counter, so every read walks the chain.
    for (std::uint32_t i = 0; i < count; ++i) out[i] = read_raw(index + i);
    return;
  }
  const std::uint64_t first_access = ctx_.access_count + 1;
  stats_.reads += count;
  ctx_.access_count += count;
  const std::uint64_t msk = mask();
  if (overlay_zero_) {
    for (std::uint32_t i = 0; i < count; ++i) out[i] = data_[index + i] & msk;
  } else {
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t m = overlay_mask_[index + i];
      out[i] = ((data_[index + i] & ~m) | overlay_value_[index + i]) & msk;
    }
  }
  if (!flips_possible_) return;
  const std::uint64_t flipped_bits = burst_flips(
      AccessKind::Read, index, count, first_access,
      [&](std::uint32_t i, std::uint64_t flips) {
        out[i] = (out[i] ^ flips) & msk;
      });
  stats_.injected_read_flips += flipped_bits;
  if (flipped_bits > 0) {
    NTC_TELEM_EVENT(telemetry::EventKind::InjectedFlips, "sram_read_flips",
                    flipped_bits, count);
    NTC_TELEM_COUNT("ntc_sram_injected_read_flips_total", flipped_bits);
  }
}

void SramModule::write_raw_burst(std::uint32_t index,
                                 const std::uint64_t* values,
                                 std::uint32_t count) {
  NTC_REQUIRE(static_cast<std::uint64_t>(index) + count <= words());
  if (count == 0) return;
  // Writes never consult the stuck overlay, so every chain bursts.
  const std::uint64_t first_access = ctx_.access_count + 1;
  stats_.writes += count;
  ctx_.access_count += count;
  const std::uint64_t msk = mask();
  for (std::uint32_t i = 0; i < count; ++i) {
    NTC_REQUIRE((values[i] & ~msk) == 0);
    data_[index + i] = values[i];
  }
  if (!flips_possible_) return;
  const std::uint64_t flipped_bits = burst_flips(
      AccessKind::Write, index, count, first_access,
      [&](std::uint32_t i, std::uint64_t flips) {
        data_[index + i] = (data_[index + i] ^ flips) & msk;
      });
  stats_.injected_write_flips += flipped_bits;
  if (flipped_bits > 0) {
    NTC_TELEM_EVENT(telemetry::EventKind::InjectedFlips, "sram_write_flips",
                    flipped_bits, count);
    NTC_TELEM_COUNT("ntc_sram_injected_write_flips_total", flipped_bits);
  }
}

void SramModule::write_raw(std::uint32_t index, std::uint64_t value) {
  NTC_REQUIRE(index < words());
  NTC_REQUIRE((value & ~mask()) == 0);
  ++stats_.writes;
  ++ctx_.access_count;
  if (!flips_possible_) {
    data_[index] = value;
    return;
  }
  const std::uint64_t flips = gather_flips(AccessKind::Write, index, ctx_);
  if (flips != 0) {
    const auto bits = static_cast<std::uint64_t>(__builtin_popcountll(flips));
    stats_.injected_write_flips += bits;
    NTC_TELEM_COUNT("ntc_sram_injected_write_flips_total", bits);
  }
  data_[index] = (value ^ flips) & mask();
}

}  // namespace ntc::sim
