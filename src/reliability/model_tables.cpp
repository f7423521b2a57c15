#include "reliability/model_tables.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace ntc::reliability {

std::size_t RetentionVminTable::failing_count(Volt vdd) const {
  // First entry with vmin <= vdd; everything before it fails.  The
  // comparison (strict >) matches the per-cell scan this replaces.
  const double v = vdd.value;
  const auto it = std::partition_point(
      vmin_desc.begin(), vmin_desc.end(),
      [v](double vmin) { return vmin > v; });
  return static_cast<std::size_t>(it - vmin_desc.begin());
}

std::shared_ptr<const RetentionVminTable> make_retention_vmin_table(
    const NoiseMarginModel& retention, std::uint64_t sigma_seed,
    std::size_t cells) {
  NTC_REQUIRE(cells > 0);
  auto table = std::make_shared<RetentionVminTable>();
  // Cell c's deviate is the c-th normal() of the stream, narrowed
  // through float; the sort is only the table's storage order.
  std::vector<double> vmin(cells);
  Rng sigma_rng(sigma_seed);
  for (auto& v : vmin) {
    const double sigma = static_cast<float>(sigma_rng.normal());
    v = retention.cell_retention_vmin(sigma).value;
  }
  std::vector<std::uint32_t> order(cells);
  for (std::size_t i = 0; i < cells; ++i)
    order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (vmin[a] != vmin[b]) return vmin[a] > vmin[b];
              return a < b;
            });
  table->vmin_desc.resize(cells);
  table->cell_desc = std::move(order);
  for (std::size_t i = 0; i < cells; ++i)
    table->vmin_desc[i] = vmin[table->cell_desc[i]];
  table->max_vmin = table->vmin_desc.front();
  return table;
}

std::vector<FailingCell> retention_failing_cells(
    const NoiseMarginModel& retention, std::uint64_t sigma_seed,
    std::size_t cells, Volt vdd) {
  NTC_REQUIRE(cells > 0);
  // A cell fails (V_min > vdd) iff its deviate lies below
  // s* = (-c1 - c0 vdd) / c2.  Rng::normal() turns a pair of uniforms
  // (u1, u2) into two deviates bounded by the pair's radius
  // sqrt(-2 ln u1), so while s* < 0 a pair can hold a failing cell only
  // if u1 < exp(-s*^2 / 2).  The relative pads on s* and on that limit
  // absorb the float narrowing (2^-24) and the rounding of log, sqrt,
  // sin, cos, exp and the V_min evaluation, so the filter never drops a
  // failing cell; the exact vmin > vdd test runs on the candidates.
  // Below the half-fail voltage s* >= 0 and every pair is a candidate.
  const double s_star =
      (-retention.c1() - retention.c0() * vdd.value) / retention.c2();
  double limit = 2.0;  // above every u1 in (0, 1]
  if (s_star < 0.0) {
    const double radius = -s_star * (1.0 - 1e-6);
    limit = std::exp(-0.5 * radius * radius) * (1.0 + 1e-6);
  }
  std::vector<FailingCell> failing;
  Rng rng(sigma_seed);
  for (std::size_t first = 0; first < cells; first += 2) {
    const Rng at_pair = rng;
    const double u1 = 1.0 - rng.uniform();  // as Rng::normal() draws it
    rng.next_u64();                         // u2
    if (u1 >= limit) continue;
    // Rewind and let Rng::normal() evaluate the pair: cell `first` takes
    // its first deviate, cell first + 1 the cached second.
    Rng pair = at_pair;
    const std::size_t end = std::min(first + 2, cells);
    for (std::size_t cell = first; cell < end; ++cell) {
      const double sigma = static_cast<float>(pair.normal());
      const double vmin = retention.cell_retention_vmin(sigma).value;
      if (vmin > vdd.value)
        failing.push_back({static_cast<std::uint32_t>(cell), vmin});
    }
  }
  return failing;
}

std::size_t ModelTableCache::KeyHash::operator()(const AccessKey& key) const {
  std::uint64_t h = 0x517cc1b727220a95ull;
  for (std::uint64_t v : {key.a, key.k, key.v0, key.vdd}) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return static_cast<std::size_t>(h);
}

double ModelTableCache::p_access(const AccessErrorModel& access, Volt vdd) {
  const AccessKey key{std::bit_cast<std::uint64_t>(access.a()),
                      std::bit_cast<std::uint64_t>(access.k()),
                      std::bit_cast<std::uint64_t>(access.v0().value),
                      std::bit_cast<std::uint64_t>(vdd.value)};
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = access_.find(key);
  if (it == access_.end())
    it = access_.emplace(key, access.p_bit_err(vdd)).first;
  return it->second;
}

std::size_t ModelTableCache::access_points() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return access_.size();
}

}  // namespace ntc::reliability
