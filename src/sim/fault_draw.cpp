#include "sim/fault_draw.hpp"

namespace ntc::sim {

FaultDraw::FaultDraw(reliability::AccessErrorModel access,
                     reliability::NoiseMarginModel retention,
                     std::uint32_t words, std::uint32_t stored_bits,
                     reliability::ModelTableCache* tables, Rng stream)
    : access_(std::move(access)),
      retention_(std::move(retention)),
      words_(words),
      stored_bits_(stored_bits),
      tables_(tables),
      stream_(stream) {
  NTC_REQUIRE(words > 0);
  NTC_REQUIRE(stored_bits >= 1 && stored_bits <= 64);
  // V_min is affine in the deviate, so its extreme over the population
  // lies at one of the Box-Muller endpoints.
  const double bound = Rng::max_normal_magnitude();
  lazy_safe_vdd_ = std::max(retention_.cell_retention_vmin(-bound).value,
                            retention_.cell_retention_vmin(bound).value);
  failing_vdd_ = lazy_safe_vdd_;
}

void FaultDraw::reseed(Rng stream) {
  *this = FaultDraw(access_, retention_, words_, stored_bits_, tables_, stream);
}

void FaultDraw::set_vdd(Volt vdd) {
  p_access_ = tables_ ? tables_->p_access(access_, vdd)
                      : access_.p_bit_err(vdd);
  gate_threshold_ = simd::gate_threshold(
      std::pow(1.0 - p_access_, static_cast<double>(stored_bits_)));
  if (vdd.value < failing_vdd_) {
    // fork() depends only on the stream's seed, so the pass consumes
    // nothing from the flip stream.
    failing_ = reliability::retention_failing_cells(
        retention_, stream_.fork(0x51d3).seed(),
        static_cast<std::size_t>(words_) * stored_bits_, vdd);
    failing_vdd_ = vdd.value;
  }
  // At or above failing_vdd_ the failing set is the part of failing_
  // whose V_min exceeds the supply.
  const std::size_t count = static_cast<std::size_t>(std::count_if(
      failing_.begin(), failing_.end(),
      [&](const reliability::FailingCell& f) { return f.vmin > vdd.value; }));
  if (count != stuck_bits_) draw_stuck(vdd, count);
}

void FaultDraw::draw_stuck(Volt vdd, std::size_t count) {
  stuck_.clear();
  stuck_bits_ = count;
  if (count == 0) return;
  // The failing cells' values are drawn in ascending cell order.
  Rng values = stream_.fork(0x57);
  for (const reliability::FailingCell& f : failing_) {
    if (f.vmin <= vdd.value) continue;
    const std::uint32_t word = f.cell / stored_bits_;
    const std::uint64_t bit = std::uint64_t{1} << (f.cell % stored_bits_);
    if (stuck_.empty() || stuck_.back().word != word)
      stuck_.push_back(StuckWord{word, 0, 0});
    stuck_.back().mask |= bit;
    if (values.bernoulli(0.5)) stuck_.back().value |= bit;
  }
}

StuckWord FaultDraw::stuck_word(std::uint32_t word) const {
  const auto it = std::lower_bound(
      stuck_.begin(), stuck_.end(), word,
      [](const StuckWord& sw, std::uint32_t w) { return sw.word < w; });
  if (it == stuck_.end() || it->word != word) return StuckWord{word, 0, 0};
  return *it;
}

}  // namespace ntc::sim
