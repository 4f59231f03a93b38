#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "context.h"
#include "obs/config.h"
#include "obs/metrics.h"

namespace gelc {
namespace perfbench {
namespace {

constexpr const char* kLayerNames[] = {
    "op.residual_ms",          // kOp: the root span's self time
    "core.parse_ms",           // kParse
    "core.plan_cache_ms",      // kPlanCache
    "core.exec_ms",            // kExec
    "core.interp_ms",          // kInterp
    "core.model_lower_ms",     // kModelLower
    "separation.gel_suite_ms", // kGelSuite
    "wl.cr_ms",                // kCr
    "wl.kwl_ms",               // kKwl
    "hom.tree_catalogue_ms",   // kTreeCatalogue
    "hom.tree_profile_ms",     // kTreeProfile
    "hom.cycle_profile_ms",    // kCycleProfile
    "graph.iso_ms",            // kIso
    "gnn.probe_ms",            // kProbe
    "gnn.train_graph_ms",      // kTrainGraph
    "gnn.train_node_ms",       // kTrainNode
    "gnn.train_link_ms",       // kTrainLink
    "graph.csr_build_ms",      // kCsrBuild
    "graph.replay_ms",         // kReplay
    "wl.cr_inc_ms",            // kCrInc
    "wl.cr_inc.refresh_ms",    // kCrIncRefresh
    "tensor.spmm_delta_ms",    // kSpmmDelta
};
static_assert(std::size(kLayerNames) == static_cast<size_t>(Layer::kCount));

constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);
constexpr uint64_t kMinBlockOps = 64;
constexpr size_t kPoolThreads = 1;

// Layers that only run during setup: reported as the median per setup,
// not per op (they should move setup_s, never an op metric).
bool IsSetupLayer(Layer layer) {
  return layer == Layer::kTreeCatalogue || layer == Layer::kCsrBuild ||
         layer == Layer::kCrIncRefresh;
}

// Registry counters whose per-op deltas feed the per-layer metrics. The
// deltas are read around RunOp only, so checks and setup never count.
enum Ctr : size_t {
  kSpmmFlops,
  kMatmulFlops,
  kFusedRows,
  kParCalls,
  kParSerial,
  kKwlRounds,
  kTrainEpochs,
  kBatchPacks,
  kCompactions,
  kIncUpdates,
  kIncFallbacks,
  kIncRecolored,
  kPlanHits,
  kPlanMisses,
  kNumCtrs,
};
constexpr const char* kCounterNames[kNumCtrs] = {
    "spmm.flops",         "matmul.flops",        "fused.layer_rows",
    "parallel.calls",     "parallel.serial_calls", "wl.kwl.rounds",
    "train.epochs",       "batch.packs",         "graph.delta.compactions",
    "wl.cr.inc.updates",  "wl.cr.inc.fallbacks", "wl.cr.inc.recolored",
    "plan.cache_hits",    "plan.cache_misses",
};

using CounterValues = std::array<uint64_t, kNumCtrs>;

CounterValues ReadCounters(const std::vector<obs::Counter*>& handles) {
  CounterValues v{};
  for (size_t c = 0; c < kNumCtrs; ++c) v[c] = handles[c]->Read();
  return v;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Nearest-rank quantile of an unsorted sample (copied, then selected).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string Num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// Wall cost of one span (two clock reads and a record), calibrated on a
// scratch tracer.
double SpanCostMs() {
  constexpr int kSpans = 20000;
  Tracer scratch;
  scratch.set_enabled(true);
  const int64_t t0 = NowNs();
  for (int k = 0; k < kSpans; ++k) ScopedSpan span(&scratch, Layer::kOp);
  return static_cast<double>(NowNs() - t0) * 1e-6 / kSpans;
}

// Mean of v[begin, end).
double MeanOf(const std::vector<double>& v, size_t begin, size_t end) {
  double sum = 0.0;
  for (size_t k = begin; k < end; ++k) sum += v[k];
  return Ratio(sum, static_cast<double>(end - begin));
}

size_t CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

// Per-layer metric name ("core.exec_ms", ...) of a layer.
const char* LayerMetricName(Layer layer) {
  return kLayerNames[static_cast<size_t>(layer)];
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             // NOLINTNEXTLINE(adhoc-timing): the benchmark times GELC from outside, with GELC's own timing planes off
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t Tracer::Begin(Layer layer, int64_t start_ns) {
  Span s;
  s.layer = layer;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op_;
  s.start_ns = start_ns;
  spans_.push_back(s);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index, int64_t end_ns) {
  spans_[static_cast<size_t>(index)].end_ns = end_ns;
  // Spans close in LIFO order (RAII), so the index is the innermost one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<int64_t> Tracer::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  return self;
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open trace output " + path);
  out << "[";
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const bool setup = IsSetupOp(s.op);
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << LayerMetricName(s.layer)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << Num(static_cast<double>(s.start_ns - t0) / 1e3)
        << ", \"dur\": " << Num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ", \"args\": {\"op\": "
        << (setup ? std::string("\"setup\"") : std::to_string(s.op))
        << ", \"parent\": " << s.parent << "}}";
  }
  out << "\n]\n";
  out.close();
  if (!out) return Status::IOError("failed writing trace output " + path);
  return Status::OK();
}

uint64_t HashBytes(const void* data, size_t size, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int RunWorkload(Workload* w, const RunConfig& config) {
  // Only the benchmark's own spans run; GELC's timing and trace planes
  // stay off whatever the environment says. The deterministic counters
  // stay on (their default), since the per-layer counts read them.
  obs::SetMetricsEnabled(true);
  obs::SetTimingsEnabled(false);
  obs::SetTraceEnabled(false);
  // One pool thread. On a host that steals vCPU time, every ParallelFor
  // waits for its slowest shard: at a pool of 4 on 4 vCPUs, 10-16% steal
  // spread ops_per_s over 40-113 ops/s across runs of `separate`, while a
  // pool of 1 held 101-103 ops/s under the same load.
  const size_t nproc = CpuCount();
  SetParallelThreadCount(std::min<size_t>(kPoolThreads, nproc));

  Tracer tracer;

  // --- Setup, repeated; setup_s is the median. ---------------------------
  // At least kMinSetups, and more while they fit in kSetupBudgetS, so a
  // cheap setup gets a median over many samples.
  constexpr size_t kMinSetups = 5;
  constexpr double kSetupBudgetS = 0.5;
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  while (setup_s.size() < kMinSetups ||
         (setup_total_s < kSetupBudgetS &&
          setup_s.size() < Tracer::kMaxSetups)) {
    w->ResetInputs();
    tracer.set_op(Tracer::kSetupOp - setup_s.size());
    tracer.set_enabled(config.trace);
    const int64_t t0 = NowNs();
    Status s = w->Setup(&tracer);
    const int64_t t1 = NowNs();
    tracer.set_enabled(false);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: %s setup failed: %s\n", w->name(),
                   s.ToString().c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    setup_total_s += setup_s.back();
  }
  const size_t repeats = setup_s.size();

  // --- The timed closed loop. --------------------------------------------
  std::vector<obs::Counter*> handles;
  for (const char* name : kCounterNames) handles.push_back(obs::GetCounter(name));
  CounterValues ctr_total{};
  std::vector<double> wall_ms;
  std::vector<bool> traced_op;
  std::vector<double> cpu_ms;
  uint64_t failed = 0;
  uint64_t digest = 0xcbf29ce484222325ULL;
  constexpr uint64_t kDigestOps = 256;
  uint64_t digest_ops = 0;
  uint64_t full_checks = 0;
  const uint64_t min_ops =
      config.inject_op >= 0 ? static_cast<uint64_t>(config.inject_op) + 1 : 1;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  uint64_t i = 0;
  for (; i < min_ops || NowNs() < deadline; ++i) {
    w->PrepareOp(i);
    const bool traced = config.trace && (MixSeed(config.seed, i) & 1);
    tracer.set_op(i);
    tracer.set_enabled(traced);
    const CounterValues c0 = ReadCounters(handles);
    const double cpu0 = CpuSeconds();
    const int64_t t0 = NowNs();
    const int32_t root = traced ? tracer.Begin(Layer::kOp, t0) : -1;
    Status s = w->RunOp(i, &tracer);
    const int64_t t1 = NowNs();
    if (root >= 0) tracer.End(root, t1);
    const double cpu1 = CpuSeconds();
    const CounterValues c1 = ReadCounters(handles);
    tracer.set_enabled(false);

    wall_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    traced_op.push_back(traced);
    cpu_ms.push_back((cpu1 - cpu0) * 1e3);
    for (size_t c = 0; c < kNumCtrs; ++c) ctr_total[c] += c1[c] - c0[c];

    const bool inject = config.inject_op == static_cast<int64_t>(i);
    const bool full = inject || w->SampledCheck(i);
    full_checks += full;
    OpOutcome outcome;
    if (s.ok()) {
      outcome = w->CheckOp(i, full, inject);
    } else {
      outcome.ok = false;
      std::fprintf(stderr, "perfbench: %s op %llu failed: %s\n", w->name(),
                   static_cast<unsigned long long>(i), s.ToString().c_str());
    }
    if (!outcome.ok) ++failed;
    if (i < kDigestOps) {
      digest = HashBytes(&outcome.digest, sizeof(outcome.digest), digest);
      ++digest_ops;
    }
  }
  const uint64_t ops = i;

  // --- End-to-end metrics (meaningful from untraced runs only). ----------
  // Throughput and CPU per op are medians over blocks of whole op-mix
  // periods, so a burst of host noise moves one block, not the run.
  const uint64_t period = std::max<uint64_t>(1, w->mix_period());
  const uint64_t block = period * ((kMinBlockOps + period - 1) / period);
  std::vector<double> block_rate;
  std::vector<double> block_cpu;
  for (uint64_t b = 0; b + block <= ops; b += block) {
    const double wall = MeanOf(wall_ms, b, b + block);
    block_rate.push_back(Ratio(1e3, wall));
    block_cpu.push_back(MeanOf(cpu_ms, b, b + block));
  }
  const double whole_rate = Ratio(1e3, MeanOf(wall_ms, 0, ops));
  const double whole_cpu = MeanOf(cpu_ms, 0, ops);
  const bool blocked = block_rate.size() >= 3;
  std::vector<Metric> e2e = {
      {"ops_per_s", blocked ? Median(block_rate) : whole_rate, "1/s"},
      {"op_p50_ms", Quantile(wall_ms, 0.50), "ms"},
      {"op_p99_ms", Quantile(wall_ms, 0.99), "ms"},
      {"cpu_ms_per_op", blocked ? Median(block_cpu) : whole_cpu, "ms"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };

  // --- Per-layer metrics from the spans (traced ops) and counters. -------
  const std::vector<int64_t> self = tracer.SelfTimes();
  std::array<double, kNumLayers> op_self_ms{};
  std::vector<std::array<double, kNumLayers>> setup_self_ms(repeats);
  std::vector<bool> op_interp(ops, false);
  double traced_wall_ms = 0.0;
  double untraced_wall_ms = 0.0;
  uint64_t traced_ops = 0;
  for (uint64_t k = 0; k < ops; ++k) {
    if (traced_op[k]) {
      traced_wall_ms += wall_ms[k];
      ++traced_ops;
    } else {
      untraced_wall_ms += wall_ms[k];
    }
  }
  const uint64_t untraced_ops = ops - traced_ops;
  for (size_t k = 0; k < self.size(); ++k) {
    const Tracer::Span& span = tracer.spans()[k];
    const auto layer = static_cast<size_t>(span.layer);
    const double ms = static_cast<double>(self[k]) * 1e-6;
    if (Tracer::IsSetupOp(span.op)) {
      setup_self_ms[static_cast<size_t>(Tracer::kSetupOp - span.op)][layer] +=
          ms;
    } else {
      op_self_ms[layer] += ms;
      if (span.layer == Layer::kInterp) op_interp[span.op] = true;
    }
  }
  uint64_t interp_ops = 0;
  for (bool b : op_interp) interp_ops += b;

  const auto per_op = [&](size_t c) {
    return Ratio(static_cast<double>(ctr_total[c]), static_cast<double>(ops));
  };
  const auto ratio = [&](size_t num, size_t den) {
    return Ratio(static_cast<double>(ctr_total[num]),
                 static_cast<double>(ctr_total[den]));
  };
  std::vector<Metric> layers;
  for (size_t l = 0; l < kNumLayers; ++l) {
    const auto layer = static_cast<Layer>(l);
    double value = 0.0;
    if (IsSetupLayer(layer)) {
      std::vector<double> per_setup;
      for (const auto& s : setup_self_ms) per_setup.push_back(s[l]);
      value = Median(per_setup);
    } else {
      value = Ratio(op_self_ms[l], static_cast<double>(traced_ops));
    }
    layers.push_back({LayerMetricName(layer), value, "ms"});
  }
  const double hits = static_cast<double>(ctr_total[kPlanHits]);
  const double lookups = hits + static_cast<double>(ctr_total[kPlanMisses]);
  const double traced_mean = Ratio(traced_wall_ms, static_cast<double>(traced_ops));
  const double untraced_mean =
      Ratio(untraced_wall_ms, static_cast<double>(untraced_ops));
  // Tracing overhead, two ways: the random traced/untraced split of this
  // run's ops, and a calibrated cost per span times spans per op.
  uint64_t op_spans = 0;
  for (const Tracer::Span& span : tracer.spans())
    op_spans += !Tracer::IsSetupOp(span.op);
  const std::vector<Metric> extra = {
      {"op.wall_ms", traced_mean, "ms"},
      {"trace.ops_per_s", Ratio(static_cast<double>(traced_ops), traced_wall_ms * 1e-3),
       "1/s"},
      {"trace.overhead_frac",
       untraced_mean > 0 ? traced_mean / untraced_mean - 1.0 : 0.0, "ratio"},
      {"trace.span_cost_frac",
       Ratio(SpanCostMs() * Ratio(static_cast<double>(op_spans),
                                  static_cast<double>(traced_ops)),
             untraced_mean),
       "ratio"},
      {"core.plan_cache.hit_ratio", Ratio(hits, lookups), "ratio"},
      {"core.interp.share",
       Ratio(static_cast<double>(interp_ops), static_cast<double>(traced_ops)),
       "ratio"},
      {"wl.kwl.rounds", per_op(kKwlRounds), "count/op"},
      {"gnn.train.epochs", per_op(kTrainEpochs), "count/op"},
      {"graph.batch.packs", per_op(kBatchPacks), "count/op"},
      {"graph.delta.compactions", per_op(kCompactions), "count/op"},
      {"wl.cr_inc.recolored_per_op", per_op(kIncRecolored), "count/op"},
      {"wl.cr_inc.fallback_ratio", ratio(kIncFallbacks, kIncUpdates), "ratio"},
      {"tensor.spmm.flops", per_op(kSpmmFlops), "flop/op"},
      {"tensor.matmul.flops", per_op(kMatmulFlops), "flop/op"},
      {"tensor.fused.rows", per_op(kFusedRows), "count/op"},
      {"base.parallel.serial_ratio", ratio(kParSerial, kParCalls), "ratio"},
      {"failed_ops_frac",
       Ratio(static_cast<double>(failed), static_cast<double>(ops)), "ratio"},
  };
  layers.insert(layers.end(), extra.begin(), extra.end());

  if (config.trace && !config.trace_out.empty()) {
    Status s = tracer.WriteChromeJson(config.trace_out);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // --- Report line (context, samples, digest), then the result line. ------
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest));
  const uint64_t tail = ops / 100;
  // Drift across the run (plan-cache warm-up, compaction cycles).
  const std::string drift =
      "{\"first_tenth_ms\": " + Num(MeanOf(wall_ms, 0, ops / 10)) +
      ", \"last_tenth_ms\": " + Num(MeanOf(wall_ms, ops - ops / 10, ops)) +
      ", \"first_half_ms\": " + Num(MeanOf(wall_ms, 0, ops / 2)) +
      ", \"second_half_ms\": " + Num(MeanOf(wall_ms, ops / 2, ops)) +
      ", \"whole_run_ops_per_s\": " + Num(whole_rate) +
      ", \"whole_run_cpu_ms_per_op\": " + Num(whole_cpu) + "}";
  std::string report = "{\"workload\": \"" + std::string(w->name()) +
                       "\", \"seed\": " + std::to_string(config.seed) +
                       ", \"trace\": " + (config.trace ? "true" : "false") +
                       ", \"context\": " + ContextJson(nproc) +
                       ", \"samples\": {\"ops\": " + std::to_string(ops) +
                       ", \"beyond_p99\": " + std::to_string(tail) +
                       ", \"setups\": " + std::to_string(repeats) +
                       ", \"setup_s_quartiles\": [" + Num(Quantile(setup_s, 0.25)) +
                       ", " + Num(Median(setup_s)) + ", " +
                       Num(Quantile(setup_s, 0.75)) + "]" +
                       ", \"blocks\": " + std::to_string(block_rate.size()) +
                       ", \"block_ops\": " + std::to_string(block) +
                       ", \"traced_ops\": " + std::to_string(traced_ops) +
                       ", \"full_checks\": " + std::to_string(full_checks) +
                       "}, \"result_digest\": \"" + digest_hex +
                       "\", \"digest_ops\": " + std::to_string(digest_ops) +
                       ", \"drift\": " + drift +
                       ", \"end_to_end\": " + MetricsJson(e2e) +
                       ", \"per_layer\": " + MetricsJson(layers);
  const std::string extra_report = w->ReportJson();
  if (!extra_report.empty()) report += ", \"workload_report\": " + extra_report;
  report += "}";
  std::printf("report %s\n", report.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(failed),
              MetricsJson(config.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
}  // namespace gelc
