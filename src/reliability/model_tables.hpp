// Reliability-model evaluations for the campaign fault draw.
//
// Retention: every SRAM instance owns a per-cell retention-V_min
// fingerprint, one Gaussian deviate per cell drawn from its own stream
// (Eq. 2).  At the supplies a campaign visits almost every cell
// retains, so the campaign never draws the population: one pass over
// the deviate stream, retention_failing_cells(), returns just the cells
// that fail, with no sort, no lock and nothing kept per seed.
// make_retention_vmin_table() is the eager reference it must match: the
// whole fingerprint, sorted.
//
// Access: every operating-point change re-evaluates the Eq. 5 access
// error curve at a supply the grid visits over and over, so a campaign
// memoises it once in a ModelTableCache shared by every platform.
//
// Both are bit-exact against the per-instance draw: the pass consumes
// the same stream with the same float narrowing, and the memo returns
// the very value the model computes.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "reliability/access_model.hpp"
#include "reliability/noise_margin.hpp"

namespace ntc::reliability {

/// Per-cell retention-V_min fingerprint of one SRAM instance, stored
/// sorted by descending V_min: the failing set at supply V is exactly
/// the prefix with vmin > V (the population is fixed, the threshold
/// moves), so a stuck-cell count is a binary search.
struct RetentionVminTable {
  /// Cell V_min, descending (ties in arbitrary order — a tie is either
  /// wholly failing or wholly retained, so the prefix is still exact).
  std::vector<double> vmin_desc;
  /// cell index (word * stored_bits + bit) of each vmin_desc entry.
  std::vector<std::uint32_t> cell_desc;
  double max_vmin = 0.0;  ///< vmin_desc.front() (0 for an empty table)

  /// Number of cells stuck below `vdd`: |{cells : vmin > vdd}|, with
  /// the exact comparison the unsorted per-cell scan used.
  std::size_t failing_count(Volt vdd) const;
};

/// Draw the whole fingerprint eagerly.  `sigma_seed` seeds the deviate
/// stream — the seed of the Rng the owning sampler forks for its
/// silicon fingerprint — and cell c's deviate is the c-th
/// Rng::normal() narrowed through float.  The reference that
/// retention_failing_cells() is tested against; no campaign path
/// calls it.
std::shared_ptr<const RetentionVminTable> make_retention_vmin_table(
    const NoiseMarginModel& retention, std::uint64_t sigma_seed,
    std::size_t cells);

/// A cell whose retention V_min exceeds the supply.
struct FailingCell {
  std::uint32_t cell = 0;  ///< word * stored_bits + bit
  double vmin = 0.0;       ///< its retention V_min [V]
};

/// The cells of make_retention_vmin_table(retention, sigma_seed, cells)
/// whose V_min exceeds `vdd`, in ascending cell order, with their V_min
/// bit-identical to the table's — in one pass over the deviate stream
/// that evaluates Box-Muller only for the pairs that can hold a failing
/// cell.
std::vector<FailingCell> retention_failing_cells(
    const NoiseMarginModel& retention, std::uint64_t sigma_seed,
    std::size_t cells, Volt vdd);

/// Thread-safe memoisation of the Eq. 5 access error curve, shared by
/// every platform of a campaign.
class ModelTableCache {
 public:
  /// Eq. 5 access error probability, memoised per (model, supply).
  double p_access(const AccessErrorModel& access, Volt vdd);

  /// Always 0: no retention fingerprint is cached, since the campaign
  /// draws only the failing cells.  Kept for the benchmark probe that
  /// reports tables built per trial.
  std::size_t vmin_tables() const { return 0; }
  /// Memoised access-curve points, for tests.
  std::size_t access_points() const;

 private:
  struct AccessKey {
    std::uint64_t a, k, v0, vdd;  ///< bit patterns
    bool operator==(const AccessKey&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const AccessKey& key) const;
  };

  mutable std::mutex mutex_;
  std::unordered_map<AccessKey, double, KeyHash> access_;
};

}  // namespace ntc::reliability
