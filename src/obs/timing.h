// The timing plane: wall-clock latency histograms, kept strictly apart
// from the deterministic metrics registry (see DESIGN.md "Observability"
// — two-plane doctrine).
//
// Nothing here reads a clock. A `GELC_PROBE("plan_exec")` (obs/trace.h)
// feeds the `LatencyHistogram` registered under its name when
// `GELC_TIMINGS=1`, from the same two clock reads that make its trace
// span, so every timing series has a span of the same name and the
// per-phase grouping (the prefix before the first '.') is shared across
// both exporters.
//
// Design contract:
//  - Off by default (`GELC_TIMINGS=1` enables); a disabled probe costs
//    one relaxed atomic load and no clock read.
//  - Buckets are log-spaced (powers of two, four linear steps per
//    octave) from 1ns to ~68s, so p50/p90/p99 extraction is within 25%
//    of the true quantile everywhere with linear interpolation tighter
//    in practice.
//  - Observes are thread-sharded like Counter: each of the kShards
//    shards owns its own bucket array and a thread picks its shard by
//    the same thread-local id, so pool workers never bounce a cache
//    line. Reads merge the shards.
//  - Each observation carries the probe's exclusive time too (inclusive
//    minus its same-thread child probes), so the per-phase rollup counts
//    nested time once.
//  - Latency values NEVER enter the deterministic registry or its
//    byte-equality goldens: snapshots carry them in a separate
//    `timings` section that is omitted when empty and explicitly
//    excluded from the deterministic-plane comparisons
//    (`gelc_stats --deterministic`, scripts/check.sh).
#ifndef GELC_OBS_TIMING_H_
#define GELC_OBS_TIMING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"  // internal::ThisThreadShard / kShards

namespace gelc {
namespace obs {

namespace internal {
/// Constructs the timing registry singleton without registering the exit
/// exporter (mirrors TouchMetricsRegistry / TouchTraceCollector).
void TouchTimingRegistry();
}  // namespace internal

/// A log-spaced-bucket histogram over nanosecond latencies, sharded per
/// thread. Unlike obs::Histogram the bounds are fixed by the class (one
/// shared log-spaced table), because every latency series needs the same
/// dynamic range and snapshots only carry the derived percentiles.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(std::string name);
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one latency (values < 1 land in the underflow bucket,
  /// values past the last bound in the overflow bucket) whose exclusive
  /// share — the part not spent in nested probes — is `exclusive_ns`.
  /// No-op when TimingsEnabled() is false.
  void Observe(int64_t ns, int64_t exclusive_ns);
  /// Records a latency with no nested probes (exclusive == inclusive).
  void Observe(int64_t ns) { Observe(ns, ns); }

  const std::string& name() const { return name_; }

  /// Per-bucket counts merged across shards; NumBuckets() entries.
  std::vector<uint64_t> Counts() const;
  /// Merged total observation count.
  uint64_t TotalCount() const;
  /// Merged sum of observed nanoseconds.
  int64_t SumNs() const;
  /// Merged sum of the observations' exclusive nanoseconds.
  int64_t ExclusiveSumNs() const;

  /// Zeroes every shard (tests / ResetTimingsForTest only).
  void Reset();

  // --- shared bucket geometry (static; one table for every series) ---

  /// Bucket count including the underflow (index 0) and overflow (last)
  /// buckets: BucketBounds().size() + 1.
  static size_t NumBuckets();
  /// The strictly ascending inclusive upper bounds, in ns. Bucket i
  /// counts v <= bounds[i] (and > bounds[i-1]); the overflow bucket past
  /// the last bound has no upper bound.
  static const std::vector<int64_t>& BucketBounds();
  /// Index of the bucket an observation of `ns` lands in.
  static size_t BucketIndex(int64_t ns);

  /// Quantile q in [0, 1] extracted from merged bucket counts by linear
  /// interpolation inside the landing bucket, in ns. Returns 0 when the
  /// histogram is empty. Deterministic given the counts.
  static double QuantileNs(const std::vector<uint64_t>& counts, double q);

 private:
  // One bucket array per shard; a thread writes only its own shard's
  // array (same thread-local shard id as Counter), so the alignas keeps
  // two shards' hot heads off a shared cache line. Constructed in place
  // (atomics are immovable); vector(count) default-inserts without moves.
  struct alignas(64) Shard {
    Shard() : counts(LatencyHistogram::NumBuckets()) {}
    std::vector<std::atomic<uint64_t>> counts;
    std::atomic<int64_t> sum_ns{0};
    std::atomic<int64_t> exclusive_ns{0};
  };
  std::vector<Shard> shards_;
  std::string name_;
};

/// Derived percentile view of one latency series (what snapshots carry).
struct LatencySample {
  std::string name;
  uint64_t count = 0;
  int64_t sum_ns = 0;
  int64_t exclusive_ns = 0;  // summary rollup only; snapshots omit it
  double p50_ns = 0.0;
  double p90_ns = 0.0;
  double p99_ns = 0.0;
};

/// Returns the process-wide latency histogram with this name,
/// registering it on first use. Handles are never invalidated; call
/// sites cache them in a function-local static (GELC_PROBE does).
LatencyHistogram* GetLatencyHistogram(const std::string& name);

/// Every latency series with at least one observation, sorted by name,
/// with p50/p90/p99 extracted from the merged buckets.
std::vector<LatencySample> TimingSnapshot();

/// Total observations across every registered series (cheap "anything
/// recorded?" check for the exit exporter).
uint64_t TimingObservationCount();

/// Human-readable table: one line per series (count, p50/p90/p99 ms,
/// total ms) followed by a per-phase rollup, where a series' phase is
/// its name up to the first '.' ("train.epoch" -> "train"). The rollup
/// sums exclusive time, so a phase nested in itself ("train.forward"
/// inside "train.epoch") is counted once. The exit exporter prints this
/// to stderr when GELC_TIMINGS was on.
std::string TimingSummaryText();

/// Zeroes every registered series (registrations and handles survive).
void ResetTimingsForTest();

}  // namespace obs
}  // namespace gelc

#endif  // GELC_OBS_TIMING_H_
