// Telemetry recorder + metrics + exporter semantics (single-threaded).
//
// The registry is process-global, so every test starts from
// reset_for_testing() and leaves the runtime flag off.  Macro-dependent
// expectations are split on NTC_TELEMETRY: in the no-telemetry build
// the NTC_TELEM_* call sites compile to nothing and the suite instead
// proves they really recorded nothing.
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ecc/hamming.hpp"
#include "energy/memory_calculator.hpp"
#include "mitigation/scheme.hpp"
#include "multitile/shared_memory.hpp"
#include "sim/ecc_memory.hpp"
#include "sim/sram_module.hpp"
#include "telemetry/build_info.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"

namespace ntc::telemetry {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_for_testing();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    reset_for_testing();
  }

  /// Total events across every thread ring.
  static std::size_t total_events() {
    std::size_t n = 0;
    for (const ThreadTrace& t : snapshot()) n += t.events.size();
    return n;
  }

  /// First event matching `name`, or nullptr.
  static const TraceEvent* find_event(const std::vector<ThreadTrace>& traces,
                                      const std::string& name) {
    for (const ThreadTrace& t : traces)
      for (const TraceEvent& ev : t.events)
        if (ev.name == name) return &ev;
    return nullptr;
  }
};

TEST_F(TelemetryTest, RecordsTypedEventsInOrder) {
  record(EventKind::MemoryBurst, "burst_a", 16, 64);
  record(EventKind::EccDecode, "decode_a", 3, 1);
  const auto traces = snapshot();
  ASSERT_EQ(total_events(), 2u);
  const TraceEvent* burst = find_event(traces, "burst_a");
  ASSERT_NE(burst, nullptr);
  EXPECT_EQ(burst->kind, EventKind::MemoryBurst);
  EXPECT_EQ(burst->a0, 16u);
  EXPECT_EQ(burst->a1, 64u);
  const TraceEvent* decode = find_event(traces, "decode_a");
  ASSERT_NE(decode, nullptr);
  EXPECT_GE(decode->ts_ns, burst->ts_ns);
}

TEST_F(TelemetryTest, DisabledRecorderStaysSilent) {
  set_enabled(false);
  NTC_TELEM_EVENT(EventKind::Scrub, "silent", 1, 2);
  NTC_TELEM_COUNT("ntc_test_silent_total", 5);
  EXPECT_EQ(total_events(), 0u);
}

TEST_F(TelemetryTest, ScopedSpanMeasuresDuration) {
  {
    ScopedSpan span(EventKind::Checkpoint, "span_a");
    span.set_args(128, 256);
  }
  const auto traces = snapshot();
  const TraceEvent* ev = find_event(traces, "span_a");
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->kind, EventKind::Checkpoint);
  EXPECT_EQ(ev->a0, 128u);
  EXPECT_EQ(ev->a1, 256u);
}

TEST_F(TelemetryTest, SpanCapturesEnabledAtConstruction) {
  // A span constructed while disabled must not record even if the flag
  // flips mid-scope (and vice versa must record after a mid-scope
  // disable) — the decision is taken once, at construction.
  set_enabled(false);
  {
    ScopedSpan span(EventKind::Span, "never");
    set_enabled(true);
  }
  EXPECT_EQ(total_events(), 0u);
  {
    ScopedSpan span(EventKind::Span, "always");
    set_enabled(false);
  }
  set_enabled(true);
  EXPECT_NE(find_event(snapshot(), "always"), nullptr);
}

TEST_F(TelemetryTest, RingWrapsAndCountsDropped) {
  // Ring capacities apply to rings created after the call: wrap a fresh
  // thread's ring, not the main thread's.
  set_ring_capacity(8);
  std::uint64_t dropped = 0;
  std::size_t kept = 0;
  std::thread t([&] {
    for (int i = 0; i < 20; ++i) record(EventKind::Span, "wrap");
    for (const ThreadTrace& trace : snapshot()) {
      for (const TraceEvent& ev : trace.events)
        if (ev.name == std::string("wrap")) ++kept;
      dropped += trace.dropped;
    }
  });
  t.join();
  set_ring_capacity(4096);  // restore the default
  EXPECT_EQ(kept, 8u);
  EXPECT_EQ(dropped, 12u);
}

TEST_F(TelemetryTest, CountersAggregateAcrossThreads) {
  Counter& c = counter("ntc_test_counter_total");
  c.inc(3);
  std::thread t([&] { c.inc(7); });
  t.join();
  EXPECT_EQ(c.value(), 10u);
  EXPECT_EQ(c.name(), "ntc_test_counter_total");
  // Same name, same counter.
  EXPECT_EQ(&counter("ntc_test_counter_total"), &c);
}

TEST_F(TelemetryTest, HistogramUsesLog2Buckets) {
  Histogram& h = histogram("ntc_test_latency_ns");
  h.observe(0);    // bucket 0
  h.observe(1);    // bucket 1
  h.observe(2);    // bucket 2: [2, 4)
  h.observe(3);    // bucket 2
  h.observe(100);  // bucket 7: [64, 128)
  const auto buckets = h.buckets();
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 2u);
  EXPECT_EQ(buckets[7], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 106u);
}

TEST_F(TelemetryTest, GaugeIsLastWriteWins) {
  Gauge& g = gauge("ntc_test_rail_volts");
  g.set(0.44);
  g.set(0.45);
  EXPECT_DOUBLE_EQ(g.value(), 0.45);
}

TEST_F(TelemetryTest, ChromeTraceExportIsWellFormed) {
  record(EventKind::VoltageChange, "rail \"quoted\"", 440, 450);
  {
    ScopedSpan span(EventKind::CampaignTrial, "trial");
    span.set_args(7, 1);
  }
  std::ostringstream out;
  export_chrome_trace(out);
  const std::string trace = out.str();
  EXPECT_EQ(trace.front(), '{');
  EXPECT_EQ(trace.back(), '}');
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"voltage_change\""), std::string::npos);
  EXPECT_NE(trace.find("\"old_mv\":440"), std::string::npos);
  // Quotes in names must be escaped or the JSON is unparseable.
  EXPECT_NE(trace.find("rail \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(trace.find("\"build\":{\"git_hash\":"), std::string::npos);
  // Balanced braces is a cheap structural sanity check.
  EXPECT_EQ(std::count(trace.begin(), trace.end(), '{'),
            std::count(trace.begin(), trace.end(), '}'));
}

TEST_F(TelemetryTest, PrometheusExportListsMetrics) {
  counter("ntc_test_events_total").inc(4);
  gauge("ntc_test_volts").set(0.42);
  Histogram& h = histogram("ntc_test_words");
  h.observe(3);
  h.observe(5);
  std::ostringstream out;
  export_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE ntc_build_info gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ntc_test_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ntc_test_events_total 4"), std::string::npos);
  EXPECT_NE(text.find("ntc_test_volts 0.42"), std::string::npos);
  // 3 lands in [2,4) (le="3"), 5 in [4,8) (le="7"); buckets cumulate.
  EXPECT_NE(text.find("ntc_test_words_bucket{le=\"3\"} 1"), std::string::npos);
  EXPECT_NE(text.find("ntc_test_words_bucket{le=\"7\"} 2"), std::string::npos);
  EXPECT_NE(text.find("ntc_test_words_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("ntc_test_words_sum 8"), std::string::npos);
  EXPECT_NE(text.find("ntc_test_words_count 2"), std::string::npos);
  EXPECT_NE(text.find("ntc_telemetry_dropped_events_total"),
            std::string::npos);
}

TEST_F(TelemetryTest, JsonlExportEmitsBuildThenEvents) {
  record(EventKind::Scrub, "scrub_a", 512, 0);
  std::ostringstream out;
  export_jsonl(out);
  const std::string text = out.str();
  EXPECT_EQ(text.rfind("{\"record\":\"build\",\"build\":", 0), 0u);
  EXPECT_NE(text.find("{\"record\":\"event\","), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"scrub\""), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST_F(TelemetryTest, BuildInfoIsPopulated) {
  const BuildInfo& b = build_info();
  EXPECT_NE(std::string(b.git_hash), "");
  EXPECT_NE(std::string(b.compiler), "");
  EXPECT_EQ(b.telemetry, NTC_TELEMETRY != 0);
  const std::string json = build_info_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  const std::string comment = build_info_csv_comment();
  EXPECT_EQ(comment.rfind("# build ", 0), 0u);
  EXPECT_EQ(comment.back(), '\n');
}

TEST_F(TelemetryTest, ResetForTestingClearsEverything) {
  record(EventKind::Span, "gone");
  counter("ntc_test_reset_total").inc(9);
  reset_for_testing();
  EXPECT_EQ(total_events(), 0u);
  EXPECT_EQ(counter("ntc_test_reset_total").value(), 0u);
}

#if NTC_TELEMETRY
TEST_F(TelemetryTest, MacrosRecordWhenCompiledInAndEnabled) {
  NTC_TELEM_EVENT(EventKind::CrcCheck, "macro_event", 64, 1);
  NTC_TELEM_COUNT("ntc_test_macro_total", 2);
  { NTC_TELEM_SPAN(span, EventKind::Restore, "macro_span"); }
  const auto traces = snapshot();
  EXPECT_NE(find_event(traces, "macro_event"), nullptr);
  EXPECT_NE(find_event(traces, "macro_span"), nullptr);
  EXPECT_EQ(counter("ntc_test_macro_total").value(), 2u);
}

TEST_F(TelemetryTest, ScopedMuteSilencesOnlyItsScope) {
  NTC_TELEM_EVENT(EventKind::Span, "before_mute", 0, 0);
  {
    NTC_TELEM_MUTE(mute);
    EXPECT_FALSE(enabled());
    NTC_TELEM_EVENT(EventKind::Span, "muted", 0, 0);
    NTC_TELEM_COUNT("ntc_test_muted_total", 3);
    {
      NTC_TELEM_MUTE(nested);  // mute depth nests
      NTC_TELEM_EVENT(EventKind::Span, "muted_nested", 0, 0);
    }
    NTC_TELEM_EVENT(EventKind::Span, "still_muted", 0, 0);
  }
  NTC_TELEM_EVENT(EventKind::Span, "after_mute", 0, 0);
  const auto traces = snapshot();
  EXPECT_NE(find_event(traces, "before_mute"), nullptr);
  EXPECT_EQ(find_event(traces, "muted"), nullptr);
  EXPECT_EQ(find_event(traces, "muted_nested"), nullptr);
  EXPECT_EQ(find_event(traces, "still_muted"), nullptr);
  EXPECT_NE(find_event(traces, "after_mute"), nullptr);
  EXPECT_EQ(counter("ntc_test_muted_total").value(), 0u);
}

TEST_F(TelemetryTest, PerWordAndBurstAccessesCountTheSameFlips) {
  // Two arrays from one seed at 0.30 V, one moved word by word and one
  // by raw bursts: the Prometheus flip counters must follow SramStats
  // whichever path an array takes.
  constexpr std::uint32_t kWords = 512;
  const auto make_array = [] {
    energy::MemoryCalculator calc(energy::MemoryStyle::CellBasedImec40,
                                  energy::MemoryGeometry{kWords, 32});
    return sim::SramModule("spm", kWords, 39, calc.access_model(),
                           calc.retention_model(), Volt{0.30}, Rng(7));
  };
  const auto flip_counters = [] {
    return std::make_pair(
        counter("ntc_sram_injected_read_flips_total").value(),
        counter("ntc_sram_injected_write_flips_total").value());
  };
  std::vector<std::uint64_t> values(kWords);
  for (std::uint32_t w = 0; w < kWords; ++w)
    values[w] = (w * 0x9E3779B97F4A7C15ull) & ((std::uint64_t{1} << 39) - 1);
  std::vector<std::uint64_t> out(kWords);

  const auto before_walk = flip_counters();
  sim::SramModule walk = make_array();
  for (int pass = 0; pass < 4; ++pass) {
    for (std::uint32_t w = 0; w < kWords; ++w) walk.write_raw(w, values[w]);
    for (std::uint32_t w = 0; w < kWords; ++w) out[w] = walk.read_raw(w);
  }
  const auto after_walk = flip_counters();
  sim::SramModule burst = make_array();
  for (int pass = 0; pass < 4; ++pass) {
    burst.write_raw_burst(0, values.data(), kWords);
    burst.read_raw_burst(0, out.data(), kWords);
  }
  const auto after_burst = flip_counters();

  const std::uint64_t walk_reads = after_walk.first - before_walk.first;
  const std::uint64_t walk_writes = after_walk.second - before_walk.second;
  EXPECT_EQ(walk_reads, walk.stats().injected_read_flips);
  EXPECT_EQ(walk_writes, walk.stats().injected_write_flips);
  EXPECT_EQ(after_burst.first - after_walk.first, walk_reads);
  EXPECT_EQ(after_burst.second - after_walk.second, walk_writes);
  EXPECT_GT(walk_reads, 0u) << "0.30 V must flip reads";
  EXPECT_GT(walk_writes, 0u) << "0.30 V must flip writes";
}

TEST_F(TelemetryTest, PerWordAndBurstReadsCountTheSameEccWords) {
  // Twin SECDED memories at 0.22 V, filled alike, one read word by word
  // and one by bursts: the ECC counters must follow the decode stats
  // whichever path a read takes, for EccMemory and the banked
  // SharedMemory alike.
  constexpr std::uint32_t kWords = 512;
  const auto ecc_counters = [] {
    return std::make_pair(
        counter("ntc_ecc_corrected_words_total").value(),
        counter("ntc_ecc_uncorrectable_words_total").value());
  };
  const auto make_ecc = [&] {
    energy::MemoryCalculator calc(energy::MemoryStyle::CellBasedImec40,
                                  energy::MemoryGeometry{kWords, 32});
    return std::make_unique<sim::EccMemory>(
        std::make_unique<sim::SramModule>("spm", kWords, 39,
                                          calc.access_model(),
                                          calc.retention_model(), Volt{0.22},
                                          Rng(7)),
        std::make_shared<ecc::HammingSecded>(32));
  };
  const auto make_shared = [] {
    multitile::BankedMemoryConfig config;
    config.total_words = kWords;
    config.banks = 4;
    config.stored_bits = 39;
    config.vdd = Volt{0.22};
    config.seed = 7;
    return std::make_unique<multitile::SharedMemory>(
        config, std::vector<mitigation::SchemeKind>{
                    mitigation::SchemeKind::Secded,
                    mitigation::SchemeKind::Secded});
  };
  std::vector<std::uint32_t> values(kWords);
  for (std::uint32_t w = 0; w < kWords; ++w) values[w] = w * 0x9E3779B9u;
  std::vector<std::uint32_t> out(kWords);

  const auto check = [&](sim::MemoryPort& walk, sim::MemoryPort& burst,
                         const auto& walk_stats, const char* what) {
    const auto before = ecc_counters();
    for (int pass = 0; pass < 4; ++pass) {
      ASSERT_EQ(walk.write_burst(0, values), sim::AccessStatus::Ok);
      for (std::uint32_t w = 0; w < kWords; ++w) walk.read_word(w, out[w]);
    }
    const auto after_walk = ecc_counters();
    for (int pass = 0; pass < 4; ++pass) {
      ASSERT_EQ(burst.write_burst(0, values), sim::AccessStatus::Ok);
      burst.read_burst(0, out);
    }
    const auto after_burst = ecc_counters();
    const sim::EccMemoryStats stats = walk_stats();
    EXPECT_EQ(after_walk.first - before.first, stats.corrected_words) << what;
    EXPECT_EQ(after_walk.second - before.second, stats.uncorrectable_words)
        << what;
    EXPECT_EQ(after_burst.first - after_walk.first,
              after_walk.first - before.first)
        << what;
    EXPECT_EQ(after_burst.second - after_walk.second,
              after_walk.second - before.second)
        << what;
    EXPECT_GT(stats.corrected_words, 0u) << what << ": 0.22 V must correct";
    EXPECT_GT(stats.uncorrectable_words, 0u)
        << what << ": 0.22 V must leave double errors";
  };

  const auto ecc_walk = make_ecc();
  const auto ecc_burst = make_ecc();
  check(*ecc_walk, *ecc_burst, [&] { return ecc_walk->stats(); }, "EccMemory");
  const auto shared_walk = make_shared();
  const auto shared_burst = make_shared();
  check(*shared_walk, *shared_burst,
        [&] {
          sim::EccMemoryStats total;
          for (std::size_t r = 0; r < shared_walk->region_count(); ++r) {
            total.corrected_words += shared_walk->region(r).stats.corrected_words;
            total.uncorrectable_words +=
                shared_walk->region(r).stats.uncorrectable_words;
          }
          return total;
        },
        "SharedMemory");
}
#else
TEST_F(TelemetryTest, MacrosCompileToNothingWhenSwitchedOff) {
  NTC_TELEM_EVENT(EventKind::CrcCheck, "macro_event", 64, 1);
  NTC_TELEM_COUNT("ntc_test_macro_total", 2);
  { NTC_TELEM_SPAN(span, EventKind::Restore, "macro_span"); }
  EXPECT_EQ(total_events(), 0u);
  EXPECT_EQ(counter("ntc_test_macro_total").value(), 0u);
}
#endif

}  // namespace
}  // namespace ntc::telemetry
