// One SRAM array's Monte-Carlo fault draw: the silicon-calibrated model
// of Section IV, implemented once for both campaign engines.  The scalar
// platform reaches it through StochasticInjector (a FaultInjector
// adapter on every SramModule); the batch engine's per-trial replay
// (faultsim/batch.cpp) calls it directly.  Per array it owns
//   * the stream: Rng(seed).fork(salt), with the salt from the map
//     below;
//   * retention faults (Eq. 4): cells whose retention V_min (the
//     Gaussian noise-margin population, Eq. 2) exceeds the supply are
//     stuck at a random value.  The per-cell deviates are the instance's
//     silicon fingerprint, drawn from one fork of the stream, and
//     persist across supply changes, so the same cells fail first every
//     time the rail droops.  The fingerprint is never drawn whole:
//       - lazy: Box-Muller deviates over 53-bit uniforms are bounded
//         (|sigma| <= Rng::max_normal_magnitude()), so a supply at or
//         above the V_min that bound implies provably retains every cell
//         and nothing is drawn;
//       - filtered: below that, one pass over the deviate stream
//         (reliability::retention_failing_cells) returns just the
//         failing cells.  The sampler keeps them for the lowest supply
//         seen; a higher supply filters that list, a lower one re-runs
//         the pass.
//     Stuck values are drawn from a second fork, in ascending cell
//     order;
//   * access faults (Eq. 5): every access flips each stored bit with
//     p_access — on reads transiently, on writes until rewritten.  Each
//     access consumes one gate uniform and, when the gate fires, the
//     nonzero mask's conditional chain; the bulk gate scan consumes the
//     identical stream.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/units.hpp"
#include "reliability/access_model.hpp"
#include "reliability/model_tables.hpp"
#include "reliability/noise_margin.hpp"

namespace ntc::sim {

/// The salt map of the per-array streams, Rng(seed).fork(salt) with
/// salt = kind + (index << 8), where index is the tile of a private
/// I-mem or PM and the bank of the shared scratchpad.  Tile 0 and bank 0
/// draw exactly the single-core Platform streams, which is what keeps a
/// 1-tile/1-bank campaign ledger byte-identical to the classic one; the
/// << 8 spacing keeps the families disjoint.
enum class ArrayKind : std::uint64_t { Imem = 0x10, Spm = 0x20, Pm = 0x30 };

/// The Monte-Carlo stream of array `kind` number `index` under `seed`.
inline Rng array_stream(std::uint64_t seed, ArrayKind kind,
                        std::uint32_t index = 0) {
  return Rng(seed).fork(static_cast<std::uint64_t>(kind) +
                        (static_cast<std::uint64_t>(index) << 8));
}

/// A word holding retention-stuck cells: `value` is already masked by
/// `mask`.
struct StuckWord {
  std::uint32_t word = 0;
  std::uint64_t mask = 0;
  std::uint64_t value = 0;
};

class FaultDraw {
 public:
  /// `tables`, when non-null, must outlive the sampler: access-curve
  /// points are then fetched from it instead of computed per instance
  /// (bit-identical either way).
  FaultDraw(reliability::AccessErrorModel access,
            reliability::NoiseMarginModel retention, std::uint32_t words,
            std::uint32_t stored_bits, reliability::ModelTableCache* tables,
            Rng stream);

  /// Restart as a freshly constructed sampler over `stream`: no
  /// failing-cell list, no stuck cells, zero access rate, untouched
  /// flip stream.  Call set_vdd() afterwards.
  void reseed(Rng stream);

  /// Re-derive the fault state at supply `vdd`.  The failing set is
  /// monotone in the supply, so sets at two supplies are nested and an
  /// unchanged size means an unchanged set; the stuck values are then
  /// not redrawn (they would come out identical).
  void set_vdd(Volt vdd);

  /// Per-bit access error probability at the last supply.
  double p_access() const { return p_access_; }

  /// Retention-stuck words at the last supply, in ascending word order.
  const std::vector<StuckWord>& stuck() const { return stuck_; }
  /// Number of stuck cells over all of stuck().
  std::size_t stuck_bits() const { return stuck_bits_; }
  /// The stuck cells of `word` (mask 0 when it has none).
  StuckWord stuck_word(std::uint32_t word) const;

  /// The flip mask of the next access.  Draws nothing while
  /// p_access() == 0.
  std::uint64_t next_flips() {
    if (p_access_ <= 0.0) return 0;
    if ((stream_.next_u64() >> 11) < gate_threshold_) return 0;
    return draw_nonzero();
  }

  /// The flips of `count` consecutive accesses in bulk: on_flip(offset,
  /// mask) for every access whose mask is nonzero, in order, consuming
  /// exactly the stream `count` next_flips() calls would.  Requires
  /// p_access() > 0.
  template <typename OnFlip>
  void scan_flips(std::uint64_t count, OnFlip&& on_flip) {
    NTC_REQUIRE(p_access_ > 0.0);
    // One fill_u64 per chunk supplies the gate uniforms of up to
    // kGateChunk accesses.  A chunk with no flip, the common case at
    // campaign supplies, consumes one engine step per access, exactly
    // as next_flips() would.  On a flip the engine rewinds to the chunk
    // snapshot, re-consumes the gates through the flipping access, draws
    // its mask, and the scan resumes on the next access.
    constexpr std::uint32_t kGateChunk = 128;
    std::uint64_t gates[kGateChunk];
    std::uint64_t i = 0;
    while (i < count) {
      const std::uint32_t n = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(count - i, kGateChunk));
      const Rng snapshot = stream_;
      stream_.fill_u64({gates, n});
      const std::uint32_t flip_at =
          simd::find_first_gate(gates, n, gate_threshold_);
      if (flip_at == n) {
        i += n;
        continue;
      }
      stream_ = snapshot;
      for (std::uint32_t j = 0; j <= flip_at; ++j) stream_.next_u64();
      on_flip(i + flip_at, draw_nonzero());
      i += flip_at + 1;
    }
  }

 private:
  /// The nonzero mask of a gated access: `stored_bits` iid
  /// Bernoulli(p_access) bits conditioned on at least one being set.
  /// While no bit has flipped yet, bit b flips with
  /// p / (1 - (1-p)^(bits-b)) — the product telescopes back to the
  /// iid-conditioned law exactly — and once one has, the remaining bits
  /// are plain Bernoulli(p).  Consumes exactly `stored_bits` steps.
  std::uint64_t draw_nonzero() {
    std::uint64_t flips = 0;
    // -expm1(k*log1p(-p)) = 1 - (1-p)^k without the cancellation the
    // direct power suffers at tiny p.
    const double log_q = std::log1p(-p_access_);
    for (std::uint32_t b = 0; b < stored_bits_; ++b) {
      if (flips == 0) {
        const double p_first =
            p_access_ /
            -std::expm1(static_cast<double>(stored_bits_ - b) * log_q);
        const bool hit = stream_.uniform() < p_first;
        // The final chain step has p_first == 1 exactly; guard the
        // floating-point edge so the mask can never come out zero.
        if (hit || b + 1 == stored_bits_) flips |= std::uint64_t{1} << b;
      } else if (stream_.bernoulli(p_access_)) {
        flips |= std::uint64_t{1} << b;
      }
    }
    return flips;
  }

  void draw_stuck(Volt vdd, std::size_t count);

  reliability::AccessErrorModel access_;
  reliability::NoiseMarginModel retention_;
  std::uint32_t words_;
  std::uint32_t stored_bits_;
  reliability::ModelTableCache* tables_;
  Rng stream_;
  /// Supplies at or above this retain every cell whatever the (undrawn)
  /// deviates are: the V_min of a cell at the Box-Muller bound.
  double lazy_safe_vdd_ = 0.0;

  double p_access_ = 0.0;
  /// Integer image of the no-flip probability (1 - p_access)^bits: an
  /// access flips when its 53-bit gate uniform u = g >> 11 reaches it
  /// (simd::gate_threshold keeps this exact against the double compare).
  std::uint64_t gate_threshold_ = std::uint64_t{1} << 53;

  /// The cells failing at failing_vdd_, the lowest supply drawn so far,
  /// in ascending cell order.  It starts as the (provably empty) list at
  /// lazy_safe_vdd_.
  std::vector<reliability::FailingCell> failing_;
  double failing_vdd_ = 0.0;
  std::vector<StuckWord> stuck_;
  std::size_t stuck_bits_ = 0;
};

}  // namespace ntc::sim
