// Observability configuration: one struct, four env vars, runtime
// toggles (see DESIGN.md "Observability").
//
//   GELC_METRICS      "0" disables the metrics registry (default: on).
//                     Disabled counters/gauges/histograms are no-ops; the
//                     instrumented hot paths pay one relaxed atomic load.
//   GELC_TIMINGS      "1" enables the timing plane (default: off): every
//                     GELC_PROBE records into its latency histogram
//                     (obs/timing.h), snapshots gain a `timings` section,
//                     and the exit exporter prints the latency rollup to
//                     stderr. Never affects the deterministic plane.
//   GELC_TRACE        "1" enables the trace plane (default: off): every
//                     GELC_PROBE records a span (obs/trace.h). At process
//                     exit the buffered spans are written to
//                     GELC_TRACE_OUT as Chrome/Perfetto JSON.
//   GELC_TRACE_OUT    Trace output path (default "gelc_trace.json").
//   GELC_METRICS_OUT  Optional path; when set, the metrics snapshot JSON
//                     is written there at process exit (run_benches.sh
//                     uses this to embed metrics into BENCH_p*.json).
//
// The enabled flags can also be flipped at runtime (tests and gelc_stats
// do) via SetMetricsEnabled / SetTimingsEnabled / SetTraceEnabled;
// passing the env-derived default back is done with ResetEnabledFromEnv.
// The timing and trace flags share one atomic byte, so a probe learns
// which planes are on from a single relaxed load.
#ifndef GELC_OBS_CONFIG_H_
#define GELC_OBS_CONFIG_H_

#include <cstdint>
#include <string>

namespace gelc {
namespace obs {

/// The parsed environment, read once at first use.
struct Config {
  bool metrics_enabled = true;
  bool timings_enabled = false;
  bool trace_enabled = false;
  std::string trace_out = "gelc_trace.json";
  std::string metrics_out;  // empty: no exit-time snapshot dump
};

/// The process-wide configuration (env parsed on first call).
const Config& GlobalConfig();

/// True when counters/gauges/histograms record (hot-path check: one
/// relaxed atomic load).
bool MetricsEnabled();
/// True when probes record into latency histograms.
bool TimingsEnabled();

/// Runtime overrides of the env-derived flags (benchmark sweeps and
/// tests flip these; they affect subsequent records only).
void SetMetricsEnabled(bool enabled);
void SetTimingsEnabled(bool enabled);
void SetTraceEnabled(bool enabled);
/// Restores the flags to the GELC_METRICS / GELC_TIMINGS / GELC_TRACE
/// values.
void ResetEnabledFromEnv();

namespace internal {
/// Bits of ProbePlanes().
constexpr uint8_t kTimingsPlane = 1;
constexpr uint8_t kTracePlane = 2;

/// The timing and trace flags as one byte (one relaxed atomic load);
/// zero when a probe has nothing to record.
uint8_t ProbePlanes();

/// Registers the process-exit exporter (trace file + optional metrics
/// snapshot dump) exactly once. Called by the registry and the trace
/// collector on construction so the exporter is destroyed — and thus
/// runs — before either of them goes away.
void EnsureExitExporter();
}  // namespace internal

}  // namespace obs
}  // namespace gelc

#endif  // GELC_OBS_CONFIG_H_
