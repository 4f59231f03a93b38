#include "obs/config.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/timing.h"
#include "obs/trace.h"

namespace gelc {
namespace obs {

namespace {

bool EnvFlag(const char* name, bool default_value) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return default_value;
  // "0", "false", "off" (any case on the first letter) disable; anything
  // else enables — mirrors GELC_NUM_THREADS's forgiving parsing.
  if (v[0] == '0' || v[0] == 'f' || v[0] == 'F') return false;
  if (v[0] == 'o' || v[0] == 'O') return v[1] == 'n' || v[1] == 'N';
  return true;
}

std::string EnvString(const char* name, const char* default_value) {
  const char* v = std::getenv(name);
  return (v == nullptr) ? default_value : v;
}

std::atomic<bool>& MetricsFlag() {
  static std::atomic<bool> flag{GlobalConfig().metrics_enabled};
  return flag;
}

uint8_t EnvPlanes() {
  return (GlobalConfig().timings_enabled ? internal::kTimingsPlane : 0) |
         (GlobalConfig().trace_enabled ? internal::kTracePlane : 0);
}

std::atomic<uint8_t>& PlaneFlags() {
  static std::atomic<uint8_t> flags{EnvPlanes()};
  return flags;
}

void SetPlane(uint8_t plane, bool enabled) {
  if (enabled) {
    PlaneFlags().fetch_or(plane, std::memory_order_relaxed);
  } else {
    PlaneFlags().fetch_and(static_cast<uint8_t>(~plane),
                           std::memory_order_relaxed);
  }
}

// Writes the trace file and the optional metrics snapshot when the
// process exits. Constructed lazily by EnsureExitExporter, which the
// registry and trace collector call from their own initialization.
struct ExitExporter {
  // Whichever singleton triggered EnsureExitExporter, materialize the
  // other one too: static destruction runs in reverse construction
  // order, so this guarantees the destructor below fires while the
  // registry and the collector are both still alive. (Without this, a
  // counter-first program whose collector is constructed later would
  // have the collector torn down before the export runs.) The config is
  // copied, not referenced: GlobalConfig()'s static may be constructed
  // after this object — e.g. when the first obs touch is a GetCounter,
  // whose MetricsEnabled check runs only after registration — and would
  // then be destroyed first, leaving its strings dangling here.
  ExitExporter() : config(GlobalConfig()) {
    internal::TouchMetricsRegistry();
    internal::TouchTraceCollector();
    internal::TouchTimingRegistry();
  }

  Config config;

  ~ExitExporter() {
    if (config.trace_enabled && TraceEventCount() > 0) {
      // Status::ToString lives in gelc_base (which links *us*); print the
      // message directly so gelc_obs stays link-standalone.
      Status s = WriteTrace(config.trace_out);
      if (!s.ok()) {
        std::fprintf(stderr, "gelc: %s\n", s.message().c_str());
      } else {
        std::fprintf(stderr, "gelc: trace written to %s (%zu spans)\n",
                     config.trace_out.c_str(), TraceEventCount());
        std::fputs(TraceSummaryText().c_str(), stderr);
      }
    }
    if (config.timings_enabled && TimingObservationCount() > 0) {
      // The timing plane's rollup goes to stderr like the trace summary;
      // it never touches the deterministic snapshot goldens.
      std::fputs(TimingSummaryText().c_str(), stderr);
    }
    if (!config.metrics_out.empty()) {
      Status s = WriteSnapshotJson(config.metrics_out);
      if (!s.ok()) std::fprintf(stderr, "gelc: %s\n", s.message().c_str());
    }
  }
};

}  // namespace

const Config& GlobalConfig() {
  static const Config config = [] {
    Config c;
    c.metrics_enabled = EnvFlag("GELC_METRICS", true);
    c.timings_enabled = EnvFlag("GELC_TIMINGS", false);
    c.trace_enabled = EnvFlag("GELC_TRACE", false);
    c.trace_out = EnvString("GELC_TRACE_OUT", "gelc_trace.json");
    c.metrics_out = EnvString("GELC_METRICS_OUT", "");
    return c;
  }();
  return config;
}

bool MetricsEnabled() {
  return MetricsFlag().load(std::memory_order_relaxed);
}

bool TimingsEnabled() {
  return (internal::ProbePlanes() & internal::kTimingsPlane) != 0;
}

void SetMetricsEnabled(bool enabled) {
  MetricsFlag().store(enabled, std::memory_order_relaxed);
}

void SetTimingsEnabled(bool enabled) {
  SetPlane(internal::kTimingsPlane, enabled);
}

void SetTraceEnabled(bool enabled) { SetPlane(internal::kTracePlane, enabled); }

void ResetEnabledFromEnv() {
  SetMetricsEnabled(GlobalConfig().metrics_enabled);
  PlaneFlags().store(EnvPlanes(), std::memory_order_relaxed);
}

namespace internal {

uint8_t ProbePlanes() { return PlaneFlags().load(std::memory_order_relaxed); }

void EnsureExitExporter() {
  static ExitExporter exporter;
  (void)exporter;
}

}  // namespace internal

}  // namespace obs
}  // namespace gelc
