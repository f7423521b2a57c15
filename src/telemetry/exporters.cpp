#include "telemetry/exporters.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>

#include "telemetry/build_info.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace ntc::telemetry {

namespace {

/// Minimal JSON string escaping.  Names are call-site literals and
/// registry names under our control, but a trace file must stay
/// parseable no matter what.
std::string json_escape(const char* s) {
  std::string out;
  for (; s != nullptr && *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Descriptive Chrome-trace arg keys for each kind's a0/a1 payload
/// (documented on EventKind).
struct ArgKeys {
  const char* a0;
  const char* a1;
};

ArgKeys arg_keys(EventKind kind) {
  switch (kind) {
    case EventKind::Span: return {"a0", "a1"};
    case EventKind::MemoryBurst: return {"start_word", "words"};
    case EventKind::EccDecode: return {"corrected", "uncorrectable"};
    case EventKind::InjectedFlips: return {"flips", "words"};
    case EventKind::Scrub: return {"words", "uncorrectable"};
    case EventKind::Checkpoint: return {"chunk_word", "words"};
    case EventKind::Restore: return {"chunk_word", "uncorrectable"};
    case EventKind::CrcCheck: return {"chunk_word", "mismatch"};
    case EventKind::VoltageChange: return {"old_mv", "new_mv"};
    case EventKind::Recovery: return {"stage", "recovered"};
    case EventKind::CampaignTrial: return {"seed", "outcome"};
    case EventKind::ExecutorJob: return {"executed", "stolen"};
    case EventKind::CampaignShard: return {"shard_id", "trials"};
  }
  return {"a0", "a1"};
}

/// Microseconds with nanosecond precision, as trace_event expects.
std::string us(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  return buf;
}

}  // namespace

void export_chrome_trace(std::ostream& out) {
  const auto traces = snapshot();
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const ThreadTrace& t : traces) {
    for (const TraceEvent& ev : t.events) {
      if (!first) out << ",";
      first = false;
      const ArgKeys keys = arg_keys(ev.kind);
      out << "{\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\""
          << to_string(ev.kind) << "\",\"ph\":\""
          << (ev.dur_ns > 0 ? "X" : "i") << "\",\"ts\":" << us(ev.ts_ns);
      if (ev.dur_ns > 0)
        out << ",\"dur\":" << us(ev.dur_ns);
      else
        out << ",\"s\":\"t\"";
      out << ",\"pid\":1,\"tid\":" << t.tid << ",\"args\":{\"" << keys.a0
          << "\":" << ev.a0 << ",\"" << keys.a1 << "\":" << ev.a1 << "}}";
    }
    if (t.dropped > 0) {
      if (!first) out << ",";
      first = false;
      out << "{\"name\":\"dropped_events\",\"cat\":\"telemetry\",\"ph\":\"i\","
             "\"ts\":0.000,\"s\":\"t\",\"pid\":1,\"tid\":"
          << t.tid << ",\"args\":{\"count\":" << t.dropped << "}}";
    }
  }
  out << "],\"otherData\":{\"build\":" << build_info_json() << "}}";
}

void export_prometheus(std::ostream& out) {
  const BuildInfo& b = build_info();
  out << "# TYPE ntc_build_info gauge\n"
      << "ntc_build_info{git_hash=\"" << b.git_hash << "\",compiler=\""
      << b.compiler << "\",build_type=\"" << b.build_type
      << "\",sanitizer=\"" << b.sanitizer << "\",telemetry=\""
      << (b.telemetry ? "on" : "off") << "\"} 1\n";

  const MetricsSnapshot snap = collect();
  for (const auto& c : snap.counters) {
    out << "# TYPE " << c.name << " counter\n"
        << c.name << " " << c.value << "\n";
  }
  for (const auto& g : snap.gauges) {
    out << "# TYPE " << g.name << " gauge\n" << g.name << " " << g.value
        << "\n";
  }
  for (const auto& h : snap.histograms) {
    out << "# TYPE " << h.name << " histogram\n";
    // Cumulative buckets; bucket k of the log2 sharding holds samples
    // in [2^(k-1), 2^k), so its inclusive upper bound is 2^k - 1.
    // Empty tail buckets are elided (+Inf carries the total).
    std::size_t last = 0;
    for (std::size_t k = 0; k < h.buckets.size(); ++k)
      if (h.buckets[k] > 0) last = k;
    std::uint64_t cum = 0;
    for (std::size_t k = 0; k <= last; ++k) {
      cum += h.buckets[k];
      const std::uint64_t le =
          k >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
      out << h.name << "_bucket{le=\"" << le << "\"} " << cum << "\n";
    }
    out << h.name << "_bucket{le=\"+Inf\"} " << h.count << "\n"
        << h.name << "_sum " << h.sum << "\n"
        << h.name << "_count " << h.count << "\n";
  }

  std::uint64_t dropped = 0;
  for (const ThreadTrace& t : snapshot()) dropped += t.dropped;
  out << "# TYPE ntc_telemetry_dropped_events_total counter\n"
      << "ntc_telemetry_dropped_events_total " << dropped << "\n";
}

void export_jsonl(std::ostream& out) {
  out << "{\"record\":\"build\",\"build\":" << build_info_json() << "}\n";
  for (const ThreadTrace& t : snapshot()) {
    for (const TraceEvent& ev : t.events) {
      out << "{\"record\":\"event\",\"tid\":" << t.tid << ",\"kind\":\""
          << to_string(ev.kind) << "\",\"name\":\"" << json_escape(ev.name)
          << "\",\"ts_ns\":" << ev.ts_ns << ",\"dur_ns\":" << ev.dur_ns
          << ",\"a0\":" << ev.a0 << ",\"a1\":" << ev.a1 << "}\n";
    }
    if (t.dropped > 0)
      out << "{\"record\":\"dropped\",\"tid\":" << t.tid
          << ",\"count\":" << t.dropped << "}\n";
  }
}

}  // namespace ntc::telemetry
