// Recorder + metrics registry implementation (both headers' engines
// live here: they share one thread registry).
//
// Each thread gets one ThreadState — trace ring plus metric shards —
// registered under the registry mutex on first use and retained after
// thread exit (a shared_ptr stays in the registry), so exports see the
// totals of finished workers.  The registry itself is intentionally
// leaked: a detached thread recording during static destruction must
// never chase a destroyed registry.
#include "telemetry/telemetry.hpp"

#include <array>
#include <bit>
#include <chrono>
#include <memory>
#include <mutex>

#include "common/assert.hpp"
#include "telemetry/metrics.hpp"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace ntc::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
}

// ---------------------------------------------------------------------------
// Clock: TSC where available, calibrated once against steady_clock over
// a 1 ms busy window when telemetry is first enabled.  Record sites
// store now_raw() ticks verbatim; snapshot() converts to nanoseconds,
// so the per-event timestamp cost is the TSC read alone.  Eager
// calibration (from set_enabled) pins the epoch before any event can be
// recorded, keeping every stored tick >= ticks0.

#if !defined(__x86_64__)
std::uint64_t now_raw() {
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}
#endif

namespace {

inline std::uint64_t raw_ticks() { return now_raw(); }

struct ClockState {
  std::uint64_t ticks0 = 0;
  double ns_per_tick = 1.0;
};

const ClockState& clock_state() {
  static const ClockState state = [] {
    ClockState c;
    const auto s0 = std::chrono::steady_clock::now();
    c.ticks0 = raw_ticks();
#if defined(__x86_64__)
    const auto target = s0 + std::chrono::milliseconds(1);
    auto s1 = s0;
    while ((s1 = std::chrono::steady_clock::now()) < target) {
    }
    const std::uint64_t t1 = raw_ticks();
    const double elapsed_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(s1 - s0).count());
    c.ns_per_tick = t1 > c.ticks0
                        ? elapsed_ns / static_cast<double>(t1 - c.ticks0)
                        : 1.0;
#else
    // steady_clock ticks are nanoseconds on every supported platform.
    c.ns_per_tick = 1.0;
#endif
    return c;
  }();
  return state;
}

/// Convert a stored now_raw() sample to epoch-relative nanoseconds.
/// Samples predating calibration (impossible once set_enabled has run,
/// defensive otherwise) clamp to the epoch.
inline std::uint64_t ticks_to_ns(std::uint64_t raw, const ClockState& c) {
  return raw >= c.ticks0
             ? static_cast<std::uint64_t>(
                   static_cast<double>(raw - c.ticks0) * c.ns_per_tick)
             : 0;
}

/// Convert a tick interval (span duration) to nanoseconds.
inline std::uint64_t tick_delta_ns(std::uint64_t delta, const ClockState& c) {
  return static_cast<std::uint64_t>(static_cast<double>(delta) *
                                    c.ns_per_tick);
}

}  // namespace

void set_enabled(bool on) {
  // Calibrate before the flag flips: recording is gated on enabled(),
  // so every stored tick postdates the epoch.
  if (on) clock_state();
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  const ClockState& c = clock_state();
  return ticks_to_ns(raw_ticks(), c);
}

// ---------------------------------------------------------------------------
// Thread registry

namespace {

// 4096 events keep a thread's ring under 200 KiB so the slot writes of
// a hot instrumented loop stay cache-resident; at transaction
// granularity that still retains thousands of bursts/spans.  Deeper
// retention is one set_ring_capacity() call away.
constexpr std::size_t kDefaultRingCapacity = 4096;

struct ThreadState {
  explicit ThreadState(std::uint32_t id, std::size_t ring_capacity)
      : tid(id), ring(ring_capacity) {}

  std::uint32_t tid;
  // Trace ring: single-writer (the owning thread).  `head` counts
  // events ever recorded; the slot for event h is ring[h & (cap - 1)].
  std::vector<TraceEvent> ring;
  std::atomic<std::uint64_t> head{0};
  // Metric shards (zero-initialized; atomics value-initialize).
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<std::atomic<std::uint64_t>,
             kMaxHistograms * kHistogramBuckets>
      hist_buckets{};
  std::array<std::atomic<std::uint64_t>, kMaxHistograms> hist_sums{};
};

struct RegistryState {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadState>> threads;
  std::uint32_t next_tid = 0;
  std::size_t ring_capacity = kDefaultRingCapacity;

  // Metric descriptors + process-lived handles (stable addresses).
  std::vector<std::string> counter_names;
  std::vector<std::unique_ptr<Counter>> counter_handles;
  std::vector<std::string> gauge_names;
  std::vector<std::unique_ptr<Gauge>> gauge_handles;
  std::array<std::atomic<std::uint64_t>, kMaxGauges> gauge_bits{};
  std::vector<std::string> histogram_names;
  std::vector<std::unique_ptr<Histogram>> histogram_handles;
};

RegistryState& registry() {
  static RegistryState* state = new RegistryState;  // leaked, see header
  return *state;
}

ThreadState& tls_state() {
  // The raw pointer is the hot-path handle; the shared_ptr keeps the
  // state alive in this thread while the registry copy keeps it alive
  // (and exportable) after the thread exits.
  thread_local ThreadState* state = nullptr;
  thread_local std::shared_ptr<ThreadState> holder;
  if (state == nullptr) {
    RegistryState& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    holder = std::make_shared<ThreadState>(r.next_tid++, r.ring_capacity);
    r.threads.push_back(holder);
    state = holder.get();
  }
  return *state;
}

}  // namespace

void set_ring_capacity(std::size_t events) {
  NTC_REQUIRE(events >= 2 && (events & (events - 1)) == 0);
  RegistryState& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.ring_capacity = events;
}

// The record family stores now_raw() ticks in ts_ns/dur_ns; snapshot()
// rewrites both to nanoseconds before events leave the recorder.

void record(EventKind kind, const char* name, std::uint64_t a0,
            std::uint64_t a1) {
  ThreadState& st = tls_state();
  const std::uint64_t h = st.head.load(std::memory_order_relaxed);
  TraceEvent& ev = st.ring[h & (st.ring.size() - 1)];
  ev.ts_ns = now_raw();
  ev.dur_ns = 0;
  ev.a0 = a0;
  ev.a1 = a1;
  ev.name = name;
  ev.kind = kind;
  st.head.store(h + 1, std::memory_order_release);
}

void record_span(EventKind kind, const char* name, std::uint64_t begin_raw,
                 std::uint64_t a0, std::uint64_t a1) {
  ThreadState& st = tls_state();
  const std::uint64_t now = now_raw();
  const std::uint64_t h = st.head.load(std::memory_order_relaxed);
  TraceEvent& ev = st.ring[h & (st.ring.size() - 1)];
  ev.ts_ns = begin_raw;
  ev.dur_ns = now >= begin_raw ? now - begin_raw : 0;
  ev.a0 = a0;
  ev.a1 = a1;
  ev.name = name;
  ev.kind = kind;
  st.head.store(h + 1, std::memory_order_release);
}

void record_bulk(EventKind kind, const char* name, std::uint64_t count,
                 std::uint64_t a0, std::uint64_t a1) {
  if (count == 0) return;
  ThreadState& st = tls_state();
  const std::uint64_t cap = st.ring.size();
  const std::uint64_t ts = now_raw();
  const std::uint64_t h = st.head.load(std::memory_order_relaxed);
  // Writing more than `cap` identical events would only overwrite our
  // own slots; head still advances by the full count so the wrap shows
  // up as dropped events, same as the one-at-a-time path.
  const std::uint64_t n = count < cap ? count : cap;
  for (std::uint64_t k = count - n; k < count; ++k) {
    TraceEvent& ev = st.ring[(h + k) & (cap - 1)];
    ev.ts_ns = ts;
    ev.dur_ns = 0;
    ev.a0 = a0;
    ev.a1 = a1;
    ev.name = name;
    ev.kind = kind;
  }
  st.head.store(h + count, std::memory_order_release);
}

std::vector<ThreadTrace> snapshot() {
  const ClockState& clk = clock_state();
  RegistryState& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<ThreadTrace> out;
  out.reserve(r.threads.size());
  for (const auto& st : r.threads) {
    ThreadTrace trace;
    trace.tid = st->tid;
    const std::uint64_t h = st->head.load(std::memory_order_acquire);
    const std::uint64_t cap = st->ring.size();
    const std::uint64_t n = h < cap ? h : cap;
    trace.dropped = h - n;
    trace.events.reserve(n);
    for (std::uint64_t i = h - n; i < h; ++i) {
      TraceEvent ev = st->ring[i & (cap - 1)];
      // Rings hold raw ticks (see the record family); events leave the
      // recorder in nanoseconds.
      ev.ts_ns = ticks_to_ns(ev.ts_ns, clk);
      ev.dur_ns = tick_delta_ns(ev.dur_ns, clk);
      trace.events.push_back(ev);
    }
    out.push_back(std::move(trace));
  }
  return out;
}

void reset_for_testing() {
  RegistryState& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& st : r.threads) {
    st->head.store(0, std::memory_order_release);
    for (auto& c : st->counters) c.store(0, std::memory_order_relaxed);
    for (auto& b : st->hist_buckets) b.store(0, std::memory_order_relaxed);
    for (auto& s : st->hist_sums) s.store(0, std::memory_order_relaxed);
  }
  for (auto& g : r.gauge_bits) g.store(0, std::memory_order_relaxed);
}

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::Span: return "span";
    case EventKind::MemoryBurst: return "memory_burst";
    case EventKind::EccDecode: return "ecc_decode";
    case EventKind::InjectedFlips: return "injected_flips";
    case EventKind::Scrub: return "scrub";
    case EventKind::Checkpoint: return "checkpoint";
    case EventKind::Restore: return "restore";
    case EventKind::CrcCheck: return "crc_check";
    case EventKind::VoltageChange: return "voltage_change";
    case EventKind::Recovery: return "recovery";
    case EventKind::CampaignTrial: return "campaign_trial";
    case EventKind::ExecutorJob: return "executor_job";
    case EventKind::CampaignShard: return "campaign_shard";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Metrics

namespace {

/// Look up `name` in `names`, or register it (bounded by `max`) and
/// mint a handle via `make`.  Returns the process-lived handle.
template <class Handle, class Make>
Handle& find_or_register(std::vector<std::string>& names,
                         std::vector<std::unique_ptr<Handle>>& handles,
                         const std::string& name, std::size_t max,
                         const Make& make) {
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return *handles[i];
  NTC_REQUIRE_MSG(names.size() < max, "metric registry ceiling reached");
  names.push_back(name);
  handles.emplace_back(make(names.size() - 1));
  return *handles.back();
}

}  // namespace

Counter& counter(const std::string& name) {
  RegistryState& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return find_or_register(r.counter_names, r.counter_handles, name,
                          kMaxCounters,
                          [](std::size_t i) { return new Counter(i); });
}

Gauge& gauge(const std::string& name) {
  RegistryState& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return find_or_register(r.gauge_names, r.gauge_handles, name, kMaxGauges,
                          [](std::size_t i) { return new Gauge(i); });
}

Histogram& histogram(const std::string& name) {
  RegistryState& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return find_or_register(r.histogram_names, r.histogram_handles, name,
                          kMaxHistograms,
                          [](std::size_t i) { return new Histogram(i); });
}

void Counter::inc(std::uint64_t n) {
  tls_state().counters[index_].fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const {
  RegistryState& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::uint64_t total = 0;
  for (const auto& st : r.threads)
    total += st->counters[index_].load(std::memory_order_relaxed);
  return total;
}

const std::string& Counter::name() const {
  RegistryState& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.counter_names[index_];
}

void Gauge::set(double value) {
  registry().gauge_bits[index_].store(std::bit_cast<std::uint64_t>(value),
                                      std::memory_order_relaxed);
}

double Gauge::value() const {
  return std::bit_cast<double>(
      registry().gauge_bits[index_].load(std::memory_order_relaxed));
}

const std::string& Gauge::name() const {
  RegistryState& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.gauge_names[index_];
}

void Histogram::observe(std::uint64_t sample) {
  ThreadState& st = tls_state();
  const std::size_t bucket = static_cast<std::size_t>(std::bit_width(sample));
  st.hist_buckets[index_ * kHistogramBuckets + bucket].fetch_add(
      1, std::memory_order_relaxed);
  st.hist_sums[index_].fetch_add(sample, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::buckets() const {
  RegistryState& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<std::uint64_t> out(kHistogramBuckets, 0);
  for (const auto& st : r.threads)
    for (std::size_t b = 0; b < kHistogramBuckets; ++b)
      out[b] += st->hist_buckets[index_ * kHistogramBuckets + b].load(
          std::memory_order_relaxed);
  return out;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets()) total += b;
  return total;
}

std::uint64_t Histogram::sum() const {
  RegistryState& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::uint64_t total = 0;
  for (const auto& st : r.threads)
    total += st->hist_sums[index_].load(std::memory_order_relaxed);
  return total;
}

const std::string& Histogram::name() const {
  RegistryState& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.histogram_names[index_];
}

MetricsSnapshot collect() {
  RegistryState& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  MetricsSnapshot snap;
  for (std::size_t i = 0; i < r.counter_names.size(); ++i) {
    std::uint64_t total = 0;
    for (const auto& st : r.threads)
      total += st->counters[i].load(std::memory_order_relaxed);
    snap.counters.push_back({r.counter_names[i], total});
  }
  for (std::size_t i = 0; i < r.gauge_names.size(); ++i)
    snap.gauges.push_back(
        {r.gauge_names[i],
         std::bit_cast<double>(
             r.gauge_bits[i].load(std::memory_order_relaxed))});
  for (std::size_t i = 0; i < r.histogram_names.size(); ++i) {
    MetricsSnapshot::HistogramValue h;
    h.name = r.histogram_names[i];
    h.buckets.assign(kHistogramBuckets, 0);
    h.sum = 0;
    for (const auto& st : r.threads) {
      for (std::size_t b = 0; b < kHistogramBuckets; ++b)
        h.buckets[b] += st->hist_buckets[i * kHistogramBuckets + b].load(
            std::memory_order_relaxed);
      h.sum += st->hist_sums[i].load(std::memory_order_relaxed);
    }
    h.count = 0;
    for (const std::uint64_t b : h.buckets) h.count += b;
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

}  // namespace ntc::telemetry
