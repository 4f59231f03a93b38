// Probes: the one instrumentation primitive (see DESIGN.md
// "Observability"). A probe times a scope once and feeds whichever of the
// two wall-clock planes are on.
//
//   void RunRound(size_t r) {
//     GELC_PROBE("wl.round", {{"round", r}});
//     ...
//   }
//
// A probe checks the plane flags once (one relaxed atomic load; a
// disabled probe reads no clock), reads the clock once at open and once
// at close, and then
//  - with GELC_TRACE, records a span (name, start, duration, nesting
//    depth, small integer args) into a lock-free ring buffer owned by
//    the calling thread; the collector drains every buffer on export;
//  - with GELC_TIMINGS, observes the duration in the latency histogram
//    registered under the same name (obs/timing.h), together with its
//    exclusive share: the duration minus its same-thread child probes.
// Each thread links its open probes parent to child; the link gives the
// span depth and the exclusive time.
//
// Two trace exporters:
//   TraceJson()        — Chrome chrome://tracing / Perfetto "traceEvents"
//                        JSON (complete "X" events, microsecond ts/dur)
//   TraceSummaryText() — a merged call tree with call counts and
//                        inclusive/exclusive milliseconds per path
// Probe names and arg keys must be string literals (the ring buffer
// stores the pointers, not copies).
//
// Timing policy: obs/trace.cc is the only TU outside bench/ that reads a
// clock — the adhoc-timing lint rule enforces it. Wall times never enter
// the metrics registry, which stays deterministic.
#ifndef GELC_OBS_TRACE_H_
#define GELC_OBS_TRACE_H_

#include <cstdint>
#include <initializer_list>
#include <string>

#include "base/status.h"
#include "obs/config.h"
#include "obs/timing.h"

namespace gelc {
namespace obs {

/// One span argument: a string-literal key and an integer value. The
/// constructor is templated so brace-init from any integer type (size_t
/// loop counters included) works without narrowing diagnostics.
struct SpanArg {
  const char* key = nullptr;
  int64_t value = 0;

  SpanArg() = default;
  template <typename T>
  SpanArg(const char* k, T v) : key(k), value(static_cast<int64_t>(v)) {}
};

namespace internal {

constexpr size_t kMaxSpanArgs = 3;

/// Records a completed span into the calling thread's ring buffer.
void RecordSpan(const char* name, int64_t start_ns, int64_t end_ns,
                uint32_t depth, const SpanArg* args, uint32_t nargs);

/// Constructs the trace collector singleton without registering the exit
/// exporter. Called from the exporter's constructor so the collector is
/// always constructed first — and thus destroyed after the export runs.
void TouchTraceCollector();

}  // namespace internal

/// RAII probe over [construction, destruction), recording into the
/// planes that are on at construction. Use via GELC_PROBE; name the
/// object instead when the scope calls SetArg.
class Probe {
 public:
  /// Named-object form; the histogram is looked up by name, and only
  /// when timings are on.
  explicit Probe(const char* name, std::initializer_list<SpanArg> args = {})
      : Probe(nullptr, name, args) {}
  /// GELC_PROBE's form: `site` is the call site's cached histogram for
  /// `name`.
  Probe(LatencyHistogram* site, const char* name,
        std::initializer_list<SpanArg> args = {})
      : planes_(internal::ProbePlanes()) {
    if (planes_ != 0) Open(site, name, args);
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;
  ~Probe() {
    if (planes_ != 0) Close();
  }

  /// Attaches/overwrites a span argument before the probe closes (for
  /// values only known at the end of the scope, e.g. colors after a WL
  /// round). Silently drops args past the kMaxSpanArgs fixed capacity.
  void SetArg(const char* key, int64_t value);

 private:
  void Open(LatencyHistogram* site, const char* name,
            std::initializer_list<SpanArg> args);
  void Close();

  uint8_t planes_;
  uint32_t depth_ = 0;
  uint32_t nargs_ = 0;
  int64_t start_ns_ = 0;
  int64_t child_ns_ = 0;  // closed same-thread children's durations
  const char* name_ = nullptr;
  LatencyHistogram* hist_ = nullptr;
  Probe* parent_ = nullptr;
  SpanArg args_[internal::kMaxSpanArgs];
};

/// All buffered spans as Chrome tracing JSON ({"traceEvents": [...]}).
/// Call when no spans are in flight on other threads (after ParallelFor
/// joins); timestamps are relative to the first buffered span.
std::string TraceJson();

/// Writes TraceJson() to `path`.
Status WriteTrace(const std::string& path);

/// Merged call tree across threads: one line per distinct span path with
/// call count, inclusive ms, exclusive ms (inclusive minus direct
/// children). Paths print in lexicographic order, children indented.
std::string TraceSummaryText();

/// Number of spans currently buffered across all threads (drops from
/// ring-buffer wraparound excluded).
size_t TraceEventCount();

/// Clears every thread's ring buffer (tests; spans must not be in
/// flight elsewhere).
void ResetTraceForTest();

}  // namespace obs
}  // namespace gelc

#define GELC_OBS_CONCAT_INNER_(a, b) a##b
#define GELC_OBS_CONCAT_(a, b) GELC_OBS_CONCAT_INNER_(a, b)

/// GELC_PROBE("name") or GELC_PROBE("name", {{"key", v}, ...}): a probe
/// covering the rest of the enclosing block. The site's histogram is
/// registered once and cached in a function-local static.
#define GELC_PROBE(name, ...)                                          \
  static ::gelc::obs::LatencyHistogram* const GELC_OBS_CONCAT_(         \
      gelc_probe_site_, __LINE__) =                                     \
      ::gelc::obs::GetLatencyHistogram(name);                           \
  ::gelc::obs::Probe GELC_OBS_CONCAT_(gelc_probe_, __LINE__)(           \
      GELC_OBS_CONCAT_(gelc_probe_site_, __LINE__),                     \
      name __VA_OPT__(, ) __VA_ARGS__)

#endif  // GELC_OBS_TRACE_H_
