// The end-to-end benchmark harness: a closed loop with one client that
// times each op from outside the library, plus the benchmark's own span
// tracer and the metric arithmetic shared by every workload.
//
// Layers are measured only from outside GELC: spans wrap the calls into
// each layer's public functions, and counter deltas come from the
// deterministic obs registry. GELC's in-program GELC_TIMINGS/GELC_TRACE
// planes stay off in every run.
#ifndef GELC_PERFBENCH_HARNESS_H_
#define GELC_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"

namespace gelc {
namespace perfbench {

/// Every layer boundary the benchmark times. kOp is the root span of one
/// op; the rest are children of it (or of a setup).
enum class Layer : uint8_t {
  kOp,
  kParse,
  kPlanCache,
  kExec,
  kInterp,
  kModelLower,
  kGelSuite,
  kCr,
  kKwl,
  kTreeCatalogue,
  kTreeProfile,
  kCycleProfile,
  kIso,
  kProbe,
  kTrainGraph,
  kTrainNode,
  kTrainLink,
  kCsrBuild,
  kReplay,
  kCrInc,
  kCrIncRefresh,
  kSpmmDelta,
  kCount,
};

/// In-memory span recorder. Single-threaded: the benchmark is one client,
/// and GELC's pool threads never call back into the benchmark.
class Tracer {
 public:
  struct Span {
    Layer layer = Layer::kOp;
    int32_t parent = -1;
    uint64_t op = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// The op id new spans carry.
  void set_op(uint64_t op) { op_ = op; }

  /// Opens a span; returns its index, or -1 when tracing is off.
  int32_t Begin(Layer layer, int64_t start_ns);
  void End(int32_t index, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span: duration minus the time its direct
  /// children cover (children never overlap: the benchmark is serial).
  std::vector<int64_t> SelfTimes() const;
  /// Writes the spans as a Chrome trace-event JSON array.
  Status WriteChromeJson(const std::string& path) const;

  /// Setup r's spans carry op id kSetupOp - r, r < kMaxSetups.
  static constexpr uint64_t kSetupOp = ~uint64_t{0};
  static constexpr uint64_t kMaxSetups = 64;
  static bool IsSetupOp(uint64_t op) { return op > kSetupOp - kMaxSetups; }

 private:
  bool enabled_ = false;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Monotonic nanoseconds.
int64_t NowNs();

/// RAII child span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer)
      : tracer_(tracer),
        index_(tracer->enabled() ? tracer->Begin(layer, NowNs()) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_->End(index_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// What an op hands back to the harness after its untimed check.
struct OpOutcome {
  bool ok = true;
  /// Hash of the op's outputs (folded into result_digest).
  uint64_t digest = 0;
};

/// One workload: inputs are generated in the constructor from the seed;
/// the harness then calls Reset+Setup several times (timing Setup), and
/// runs ops until the time budget is spent.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Untimed: restores the generated inputs to their pristine state
  /// (no CSR snapshots, no caches) so the next Setup pays everything.
  virtual void ResetInputs() = 0;
  /// Timed as setup_s: everything between "inputs in hand" and the
  /// first op (CSR builds, catalogues, oracle/refiner construction).
  virtual Status Setup(Tracer* tracer) = 0;
  /// Untimed: generates op i's inputs.
  virtual void PrepareOp(uint64_t i) = 0;
  /// Timed: op i's calls into GELC.
  virtual Status RunOp(uint64_t i, Tracer* tracer) = 0;
  /// Untimed: checks op i's outputs against a reference that is never
  /// the timed path. `full` forces the expensive sampled check; `inject`
  /// corrupts the op's output first (the self-test's wrong answer).
  virtual OpOutcome CheckOp(uint64_t i, bool full, bool inject) = 0;
  /// Whether op i gets the expensive check without being forced.
  virtual bool SampledCheck(uint64_t i) const = 0;
  /// Ops after which the op mix repeats (throughput is measured over
  /// whole periods).
  virtual uint64_t mix_period() const = 0;
  /// Workload-specific numbers for the report line (a JSON object).
  virtual std::string ReportJson() const { return ""; }
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // empty: spans are not written
  int64_t inject_op = -1; // op whose output is corrupted; -1 = none
};

/// Runs one workload end to end and prints the report line and the
/// final result line on stdout. Returns the process exit code.
int RunWorkload(Workload* workload, const RunConfig& config);

/// 64-bit FNV-1a over raw bytes, chainable through `h`.
uint64_t HashBytes(const void* data, size_t size,
                   uint64_t h = 0xcbf29ce484222325ULL);

/// Deterministic per-op random stream: the op sequence is a pure
/// function of (seed, op index), whatever the run's op count.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

}  // namespace perfbench
}  // namespace gelc

#endif  // GELC_PERFBENCH_HARNESS_H_
