// Low-overhead tracing for the SRAM/ECC/OCEAN/campaign stack.
//
// The paper's single-supply scheme only works because the runtime
// *observes* the memory (error-rate monitors, voltage control); this
// subsystem gives the reproduction the same visibility at run time: a
// lock-free per-thread ring buffer of typed events (memory bursts, ECC
// decode outcomes, scrubs, OCEAN checkpoint/rollback, voltage changes,
// campaign trials, executor jobs) plus scoped-span RAII timers, drained
// on demand into Chrome trace_event JSON, Prometheus text or JSON
// lines (see exporters.hpp).
//
// Cost model, enforced by bench/perf_suite (fft_platform_run_telemetry,
// campaign_grid_slice_telemetry, <2% over the untraced runs):
//   * compiled out (NTC_TELEMETRY=0): the NTC_TELEM_* macros expand to
//     nothing — call sites vanish, behaviour is bit-identical;
//   * compiled in, disabled (default): one relaxed atomic load + branch
//     per call site;
//   * enabled: events are recorded at *transaction* granularity (one
//     event per burst / decode summary / scrub / trial — never per word
//     or per bit), so the hot scalar access paths stay untouched.
// Instrumentation only observes: it never draws from a fault-model RNG
// or touches simulation state, so traced and untraced runs are
// bit-identical by construction.
//
// Threading: each thread records into its own ring (registered on first
// use, retained after thread exit).  Recording is wait-free for the
// owning thread.  Draining (snapshot/export) is intended for quiescent
// instants — after an executor job parked its workers, after a run
// completed; concurrent recording by *other* threads only risks torn
// events in rings still being appended to, never corruption of the
// registry itself.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

// Compile-time master switch.  The build defines NTC_TELEMETRY=0|1 (see
// the telemetry / no-telemetry CMake presets); standalone compilation
// defaults to on.
#ifndef NTC_TELEMETRY
#define NTC_TELEMETRY 1
#endif

namespace ntc::telemetry {

// ---------------------------------------------------------------------------
// Event model

enum class EventKind : std::uint8_t {
  Span,            ///< generic scoped timer (name says what)
  MemoryBurst,     ///< a0 = start word index, a1 = word count
  EccDecode,       ///< a0 = corrected words, a1 = uncorrectable words
  InjectedFlips,   ///< a0 = flipped bits, a1 = word count of the access
  Scrub,           ///< span; a0 = words scrubbed, a1 = uncorrectable met
  Checkpoint,      ///< span; a0 = chunk word offset, a1 = words saved
  Restore,         ///< span; a0 = chunk word offset, a1 = uncorrectable
  CrcCheck,        ///< a0 = chunk word offset, a1 = 1 on mismatch
  VoltageChange,   ///< a0 = old rail [mV], a1 = new rail [mV]
  Recovery,        ///< a0 = RecoveryStage, a1 = 1 if the stage recovered
  CampaignTrial,   ///< span; a0 = seed, a1 = RunOutcome ordinal
  ExecutorJob,     ///< span; a0 = indices executed, a1 = indices stolen
  CampaignShard,   ///< span; a0 = shard id, a1 = trials executed
};

const char* to_string(EventKind kind);

/// Stage ordinals for EventKind::Recovery events.
enum class RecoveryStage : std::uint64_t {
  Enter = 0,       ///< uncorrectable read met, escalation begins
  Retry = 1,
  ScrubRetry = 2,
  VoltageBump = 3,
  Failed = 4,      ///< options exhausted, surfaced to the initiator
};

/// One trace record.  `name` must outlive every export of the event —
/// call sites pass string literals.
struct TraceEvent {
  std::uint64_t ts_ns = 0;   ///< nanoseconds since the recorder epoch
  std::uint64_t dur_ns = 0;  ///< 0 for instant events
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  const char* name = nullptr;
  EventKind kind = EventKind::Span;
};

// ---------------------------------------------------------------------------
// Runtime switch + clock

namespace detail {
extern std::atomic<bool> g_enabled;
/// ScopedMute depth of the calling thread.  Inline, not extern: GCC 12
/// reaches an extern thread_local through a TLS wrapper in which UBSan
/// reports null-pointer loads and stores.
inline thread_local int t_muted = 0;
}

/// Runtime enable flag on top of the compile-time switch.  Off by
/// default: a disabled call site costs one relaxed load and a branch.
/// A thread with an active ScopedMute reads as disabled; the mute depth
/// is only consulted after the global flag passes, so the disabled
/// fast path stays a single load.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed) &&
         detail::t_muted == 0;
}
void set_enabled(bool on);

/// Monotonic nanoseconds since the process-wide recorder epoch (set
/// when telemetry is first enabled).  Uses the TSC where available,
/// calibrated once against steady_clock.
std::uint64_t now_ns();

/// Raw clock sample in unconverted ticks.  The recording hot path
/// stores these verbatim and snapshot() converts to nanoseconds, so a
/// record site pays one TSC read and nothing else for its timestamp —
/// no calibration lookup, no tick-to-ns arithmetic.
#if defined(__x86_64__)
inline std::uint64_t now_raw() { return __builtin_ia32_rdtsc(); }
#else
std::uint64_t now_raw();  // steady_clock ns; defined in telemetry.cpp
#endif

// ---------------------------------------------------------------------------
// Recording

/// Record an instant event into the calling thread's ring.
void record(EventKind kind, const char* name, std::uint64_t a0 = 0,
            std::uint64_t a1 = 0);

/// Record a completed span [begin_raw, now) — `begin_raw` is a
/// now_raw() sample taken at span entry.
void record_span(EventKind kind, const char* name, std::uint64_t begin_raw,
                 std::uint64_t a0 = 0, std::uint64_t a1 = 0);

/// Record `count` identical instant events with one timestamp read and
/// one ring publish — the bulk form for loops whose per-iteration work
/// is too cheap to carry a ScopedSpan (e.g. batch-replayed campaign
/// trials).  Exports see `count` ordinary events, so event-count
/// invariants hold whichever form the producer used.
void record_bulk(EventKind kind, const char* name, std::uint64_t count,
                 std::uint64_t a0 = 0, std::uint64_t a1 = 0);

/// Events to retain per thread before the ring wraps (oldest events are
/// overwritten; wrapped counts are reported as dropped).  Applies to
/// rings created after the call.  Power of two; default 4096 — small
/// enough that the ring's slot writes stay cache-resident under the
/// recorder's <2% overhead budget.
void set_ring_capacity(std::size_t events);

/// Drop every recorded event and zero every metric — fresh start for a
/// new measurement window (tests, benches).  Rings registered by other
/// threads are cleared too; call at a quiescent instant.
void reset_for_testing();

/// Per-thread drain for the exporters: events in record order plus the
/// count lost to ring wrap.
struct ThreadTrace {
  std::uint32_t tid = 0;  ///< stable small id assigned at first use
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;
};

/// Snapshot every thread's ring (including threads that have exited).
/// Intended for quiescent instants; see the header comment.
std::vector<ThreadTrace> snapshot();

// ---------------------------------------------------------------------------
// Scoped spans

/// RAII timer: records one EventKind span on destruction when telemetry
/// was enabled at construction.  Args can be filled in as the scope
/// learns them (e.g. a trial's outcome).
class ScopedSpan {
 public:
  ScopedSpan(EventKind kind, const char* name) {
    if (enabled()) {
      active_ = true;
      kind_ = kind;
      name_ = name;
      begin_raw_ = now_raw();
    }
  }
  ~ScopedSpan() {
    if (active_) record_span(kind_, name_, begin_raw_, a0_, a1_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_args(std::uint64_t a0, std::uint64_t a1) {
    a0_ = a0;
    a1_ = a1;
  }

 private:
  bool active_ = false;
  EventKind kind_ = EventKind::Span;
  const char* name_ = nullptr;
  std::uint64_t begin_raw_ = 0;
  std::uint64_t a0_ = 0;
  std::uint64_t a1_ = 0;
};

/// Compiled-out stand-in so call sites keep a named span object.
struct NullSpan {
  void set_args(std::uint64_t, std::uint64_t) {}
};

/// RAII: suppress recording on the calling thread for the enclosing
/// scope (nests; other threads are unaffected).  For infrastructure
/// passes that would pollute a trace with events that are not part of
/// the simulation under observation — e.g. the campaign's fault-free
/// golden reference run.
class ScopedMute {
 public:
  ScopedMute() { ++detail::t_muted; }
  ~ScopedMute() { --detail::t_muted; }
  ScopedMute(const ScopedMute&) = delete;
  ScopedMute& operator=(const ScopedMute&) = delete;
};

/// Compiled-out stand-in for NTC_TELEM_MUTE.
struct NullMute {};

}  // namespace ntc::telemetry

// ---------------------------------------------------------------------------
// Call-site macros: the only way the instrumented layers talk to the
// recorder, so the no-telemetry build compiles them to nothing.

#if NTC_TELEMETRY
/// Record an instant event when telemetry is enabled.
#define NTC_TELEM_EVENT(kind, name, a0, a1)                           \
  do {                                                                \
    if (::ntc::telemetry::enabled())                                  \
      ::ntc::telemetry::record((kind), (name),                        \
                               static_cast<std::uint64_t>(a0),        \
                               static_cast<std::uint64_t>(a1));       \
  } while (0)
/// Record `count` identical instant events in one ring publish.
#define NTC_TELEM_EVENTS(kind, name, count, a0, a1)                    \
  do {                                                                 \
    if (::ntc::telemetry::enabled())                                   \
      ::ntc::telemetry::record_bulk((kind), (name),                    \
                                    static_cast<std::uint64_t>(count), \
                                    static_cast<std::uint64_t>(a0),    \
                                    static_cast<std::uint64_t>(a1));   \
  } while (0)
/// Declare a scoped span named `var` (NullSpan when compiled out).
#define NTC_TELEM_SPAN(var, kind, name) \
  ::ntc::telemetry::ScopedSpan var((kind), (name))
/// Guard for instrumentation blocks too irregular for the macros above.
#define NTC_TELEM_ON() (::ntc::telemetry::enabled())
/// Mute recording on this thread for the enclosing scope.
#define NTC_TELEM_MUTE(var) ::ntc::telemetry::ScopedMute var
#else
#define NTC_TELEM_EVENT(kind, name, a0, a1) \
  do {                                      \
  } while (0)
#define NTC_TELEM_EVENTS(kind, name, count, a0, a1) \
  do {                                              \
  } while (0)
#define NTC_TELEM_SPAN(var, kind, name) ::ntc::telemetry::NullSpan var
#define NTC_TELEM_ON() (false)
#define NTC_TELEM_MUTE(var) ::ntc::telemetry::NullMute var
#endif
