// Golden ledger: the exact bytes of a campaign ledger, pinned.
//
// The equivalence suites (faultsim_batch_test, multitile_equivalence_test)
// compare the scalar and batch engines with each other, which proves
// nothing once both call the same fault sampler.  This suite compares
// them with constants instead: the CRC-32C of the CSV body (the '# build'
// provenance lines excluded) of four in-process CampaignRunner grids at
// the paper's 1024-point FFT, 4 seeds per cell, at 1 and 4 workers with
// the batch engine on and off:
//   * {background, burst} x {none, secded, ocean} x {0.28, 0.30, 0.44} V
//     — retention stuck cells, access flips, scripted events, peels;
//   * a 2-tile / 2-bank secded+ocean mix at {0.30, 0.44} V — the banked
//     shared memory and per-tile salt families;
//   * the 4-tile / 4-bank secded+ocean mix campaign_bench's
//     scripted_scalar runs, under {burst, stuck} at {0.30, 0.44} V — the
//     word-interleaved bank map and four-way arbitration;
//   * OCEAN at 0.24 V with two voltage escalations allowed — every seed
//     moves the rail, so the stuck set is re-derived mid-trial.
// A change that moves a ledger on purpose re-records these constants and
// names the old and new values in CHANGES.md.
#include <gtest/gtest.h>

#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/framing.hpp"
#include "faultsim/campaign.hpp"
#include "sim/memory_port.hpp"

namespace ntc::faultsim {
namespace {

/// ntc_campaign's built-in "burst" scenario.
Scenario burst_scenario() {
  Scenario s;
  s.name = "burst";
  s.spm_events = {FaultEvent::read_burst(3, 4, 3),
                  FaultEvent::stuck_at(9, 0x7, 0x5, 0.6)};
  s.imem_events = {FaultEvent::transient_flip(2, 0x10, 40)};
  s.pm_events = {FaultEvent::write_burst(1, 0x3)};
  return s;
}

CampaignConfig base_config() {
  CampaignConfig config;
  config.fft_points = 1024;
  config.seeds_per_cell = 4;
  config.stochastic_background = true;
  return config;
}

CampaignConfig classic_grid() {
  CampaignConfig config = base_config();
  config.scenarios = {Scenario{"background", {}, {}, {}}, burst_scenario()};
  config.schemes = {mitigation::SchemeKind::NoMitigation,
                    mitigation::SchemeKind::Secded,
                    mitigation::SchemeKind::Ocean};
  config.voltages = {Volt{0.28}, Volt{0.30}, Volt{0.44}};
  return config;
}

CampaignConfig tile_grid() {
  CampaignConfig config = base_config();
  config.scenarios = {Scenario{"background", {}, {}, {}}, burst_scenario()};
  config.schemes = {};
  config.tile_mixes = {TileMixSpec{
      2, 2, {mitigation::SchemeKind::Secded, mitigation::SchemeKind::Ocean},
      ""}};
  config.voltages = {Volt{0.30}, Volt{0.44}};
  return config;
}

/// ntc_campaign's built-in "stuck" scenario.
Scenario stuck_scenario() {
  Scenario s;
  s.name = "stuck";
  s.spm_events = {FaultEvent::stuck_at(7, 1ull << 4, 0)};
  return s;
}

CampaignConfig tile_grid_4x4() {
  CampaignConfig config = base_config();
  config.scenarios = {burst_scenario(), stuck_scenario()};
  config.schemes = {};
  config.tile_mixes = {TileMixSpec{
      4, 4, {mitigation::SchemeKind::Secded, mitigation::SchemeKind::Ocean},
      ""}};
  config.voltages = {Volt{0.30}, Volt{0.44}};
  return config;
}

CampaignConfig escalation_cell() {
  CampaignConfig config = base_config();
  config.schemes = {mitigation::SchemeKind::Ocean};
  config.voltages = {Volt{0.24}};
  config.ocean.max_voltage_escalations = 2;
  return config;
}

struct GoldenGrid {
  const char* name;
  CampaignConfig (*config)();
  std::size_t rows;
  std::uint32_t csv_body_crc;
  /// Every trial must move the rail, or the grid no longer covers the
  /// mid-trial re-derivation it is here for.
  bool every_trial_escalates;
};

const GoldenGrid kGrids[] = {
    {"ClassicGrid", classic_grid, 72, 0xeac87597u, false},
    {"TileMix", tile_grid, 16, 0x3dc46065u, false},
    {"TileMix4x4", tile_grid_4x4, 16, 0x9133584fu, false},
    {"OceanEscalation", escalation_cell, 4, 0x698bdc1au, true},
};

struct GoldenRun {
  std::size_t grid = 0;
  unsigned workers = 1;
  bool batch = true;
};

std::string label(const GoldenRun& run) {
  return std::string(kGrids[run.grid].name) + "_w" +
         std::to_string(run.workers) + (run.batch ? "_batch" : "_scalar");
}

// Printed into ctest names; a label keeps them the same on every build.
std::ostream& operator<<(std::ostream& out, const GoldenRun& run) {
  return out << label(run);
}

std::string run_name(const testing::TestParamInfo<GoldenRun>& info) {
  return label(info.param);
}

std::vector<GoldenRun> all_runs() {
  std::vector<GoldenRun> runs;
  for (std::size_t g = 0; g < std::size(kGrids); ++g)
    for (const unsigned workers : {1u, 4u})
      for (const bool batch : {true, false})
        runs.push_back(GoldenRun{g, workers, batch});
  return runs;
}

/// CRC-32C of the CSV ledger without its '# build' provenance lines —
/// the digest campaign_bench prints.
std::uint32_t csv_body_crc(const std::string& csv) {
  std::string body;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t end = csv.find('\n', pos);
    end = end == std::string::npos ? csv.size() : end + 1;
    if (csv.compare(pos, 7, "# build") != 0) body.append(csv, pos, end - pos);
    pos = end;
  }
  return crc32c(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(body.data()), body.size()));
}

/// Restore the process-global kill-switch whatever a test does.
struct BatchSwitchGuard {
  bool prev = sim::batch_enabled();
  ~BatchSwitchGuard() { sim::set_batch_enabled(prev); }
};

class GoldenLedger : public testing::TestWithParam<GoldenRun> {};

TEST_P(GoldenLedger, CsvBodyMatchesRecordedCrc) {
  const GoldenRun& run = GetParam();
  const GoldenGrid& grid = kGrids[run.grid];
  BatchSwitchGuard guard;
  sim::set_batch_enabled(run.batch);
  CampaignConfig config = grid.config();
  config.threads = run.workers;
  CampaignRunner runner(config);
  const std::vector<RunRecord>& records = runner.run();
  ASSERT_EQ(records.size(), grid.rows);
  if (grid.every_trial_escalates) {
    for (const RunRecord& r : records)
      EXPECT_GT(r.ocean_voltage_escalations, 0u);
  }
  std::ostringstream csv;
  runner.write_csv(csv);
  EXPECT_EQ(csv_body_crc(csv.str()), grid.csv_body_crc)
      << std::hex << "ledger body crc32c 0x" << csv_body_crc(csv.str());
}

INSTANTIATE_TEST_SUITE_P(Grids, GoldenLedger, testing::ValuesIn(all_runs()),
                         run_name);

}  // namespace
}  // namespace ntc::faultsim
