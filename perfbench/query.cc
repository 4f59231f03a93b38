// Workload `query`: serving GEL queries. One op answers one query on one
// target graph: a text query goes ParseExpr -> PlanCache::GetOrCompile ->
// ExecutePlan; an API-built GNN-101/GIN model goes CompileGnn101ToGel /
// CompileGinToGel -> GetOrCompile -> ExecutePlan. Queries are drawn with
// a Zipf skew over a fixed pool, so cache hits dominate while fresh
// models keep forcing compiles; a small share lies outside the plannable
// fragment (GetOrCompile says Unimplemented) and falls back to the
// Evaluator on a small graph. The core and fused tensor kernels do
// almost all the work; hom, wl and autodiff sit idle.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "core/compile_gnn.h"
#include "core/eval.h"
#include "core/parser.h"
#include "core/plan_compile.h"
#include "core/plan_exec.h"
#include "gnn/gnn101.h"
#include "gnn/mpnn.h"
#include "inputs.h"
#include "workloads.h"

namespace gelc {
namespace perfbench {
namespace {

constexpr size_t kLabels = 4;
// Target graphs: two of each size, average degree 8 (ops cycle through
// them, so every run sees the same size mix whatever the seed).
constexpr size_t kTargetSizes[] = {1024, 2048, 4096, 8192};
constexpr size_t kTargetsPerSize = 2;
// Fallback graphs for non-plannable queries (n <= 64). Their costs grow
// as n^3; at n = 40 the dearest stays near a fresh compile's.
constexpr size_t kSmallSizes[] = {16, 24, 32, 40};
constexpr size_t kPoolSize = 256;
constexpr size_t kNonPlannablePool = 16;
constexpr double kZipfExponent = 1.0;
// In every block of kBlock ops, one falls back to the Evaluator (3.1%)
// and two compile a fresh model on an n = 8192 target (6.25%). The fresh
// compiles are the dearest ops, so p99 sits inside their population
// instead of on the border between two.
constexpr uint64_t kBlock = 32;
constexpr uint64_t kInterpSlot = 0;
constexpr uint64_t kFreshSlots[] = {8, 24};
constexpr uint64_t kCheckEvery = 16;
constexpr uint64_t kSessionOps = 1024;

const char* const kAggs[] = {"sum", "mean", "max"};

// A vertex query with free variable x{v} in the guarded two-variable
// (MPNN) fragment, `depth` aggregations deep: every level is
// act(op(agg_θ(child(x{o}) | E), child(x{v}))). The seed draws labels,
// θ, op and act, never the shape, so every seed's pool costs the same.
std::string VertexQuery(Rng* rng, int depth, int v) {
  if (depth == 0) {
    return "lab" + std::to_string(rng->NextBounded(kLabels)) + "(x" +
           std::to_string(v) + ")";
  }
  static const char* const kOps[] = {"add", "mul"};
  static const char* const kActs[] = {"relu", "tanh", "sigmoid"};
  const int o = 1 - v;
  const std::string agg = std::string("agg[") + kAggs[rng->NextBounded(3)] +
                          "]_{x" + std::to_string(o) + "}(" +
                          VertexQuery(rng, depth - 1, o) + " | E(x" +
                          std::to_string(v) + ",x" + std::to_string(o) + "))";
  const std::string self = VertexQuery(rng, depth - 1, v);
  return std::string(kActs[rng->NextBounded(3)]) + "(" +
         kOps[rng->NextBounded(2)] + "(" + agg + "," + self + "))";
}

// Queries outside the plannable fragment (non-edge guards, pair tables,
// multi-variable binders). Their values are integer-valued, so any
// evaluation order gives the same bits.
std::string NonPlannableQuery(Rng* rng, size_t i) {
  const std::string j = std::to_string(rng->NextBounded(kLabels));
  const std::string agg = kAggs[rng->NextBounded(3)];
  switch (i % 4) {
    case 0:
      return "agg[" + agg + "]_{x1}(lab" + j + "(x1) | 1[x0!=x1])";
    case 1:
      return "agg[" + agg + "]_{x1}(agg[sum]_{x2}(E(x0,x2) | E(x1,x2)) | "
             "E(x0,x1))";
    case 2:
      return "agg[sum]_{x1,x2}(mul(E(x0,x1),mul(E(x1,x2),lab" + j +
             "(x2))))";
    default:
      return "agg[" + agg + "]_{x0,x1}(mul(E(x0,x1),lab" + j + "(x1)))";
  }
}

enum class QueryKind { kText, kGnn101, kGin };

struct PoolEntry {
  QueryKind kind = QueryKind::kText;
  std::string text;
  std::shared_ptr<const Gnn101Model> gnn;
  std::shared_ptr<const GinModel> gin;
};

class QueryWorkload : public Workload {
 public:
  explicit QueryWorkload(uint64_t seed) : seed_(seed) {
    Rng rng(MixSeed(seed, 0x51));
    for (size_t n : kTargetSizes)
      for (size_t k = 0; k < kTargetsPerSize; ++k)
        pristine_targets_.push_back(RandomLabelledGraph(n, 8.0, kLabels, &rng));
    for (size_t n : kSmallSizes)
      pristine_small_.push_back(RandomLabelledGraph(n, 4.0, kLabels, &rng));
    // Pool rank r: kinds stratified by r % 8 so that every seed's hot set
    // has the same mix (6 text : 1 GNN-101 : 1 GIN).
    for (size_t r = 0; r < kPoolSize; ++r) {
      PoolEntry e;
      if (r % 8 == 6) {
        e.kind = QueryKind::kGnn101;
        e.gnn = std::make_shared<Gnn101Model>(
            Gnn101Model::Random({kLabels, 8, 8}, Activation::kTanh, 0.5, &rng)
                .value());
      } else if (r % 8 == 7) {
        e.kind = QueryKind::kGin;
        e.gin = std::make_shared<GinModel>(
            GinModel::Random({kLabels, 8, 8}, 0.5, &rng).value());
      } else {
        const int depth = 1 + static_cast<int>(r % 3);
        e.text = VertexQuery(&rng, depth, 0);
        if (r % 4 == 3) e.text = "agg[sum]_{x0}(" + e.text + ")";
      }
      pool_.push_back(std::move(e));
    }
    for (size_t k = 0; k < kNonPlannablePool; ++k)
      non_plannable_.push_back(NonPlannableQuery(&rng, k));
    double total = 0;
    for (size_t r = 0; r < kPoolSize; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  uint64_t mix_period() const override { return kBlock; }
  const char* name() const override { return "query"; }

  void ResetInputs() override {
    targets_ = pristine_targets_;
    small_ = pristine_small_;
    cache_.reset();
  }

  Status Setup(Tracer* tracer) override {
    {
      ScopedSpan span(tracer, Layer::kCsrBuild);
      for (const Graph& g : targets_) (void)g.Csr();
      for (const Graph& g : small_) (void)g.Csr();
    }
    cache_ = std::make_unique<PlanCache>();
    return Status::OK();
  }

  void PrepareOp(uint64_t i) override {
    Rng rng(MixSeed(seed_, i));
    op_ = Op();
    // PlanCache never evicts, and every fresh model adds an entry. A new
    // cache per session of kSessionOps ops keeps memory and hit ratio
    // independent of how many ops a run gets through.
    if (i > 0 && i % kSessionOps == 0) cache_ = std::make_unique<PlanCache>();
    // Op kinds are placed by index, not drawn, so every run has the same
    // share of fallbacks and fresh compiles (and hence the same tail).
    const uint64_t slot = i % kBlock;
    const uint64_t block = i / kBlock;
    if (slot == kInterpSlot) {
      op_.entry.text = non_plannable_[block % kNonPlannablePool];
      op_.graph = &small_[(block / kNonPlannablePool) % small_.size()];
      return;
    }
    if (slot == kFreshSlots[0] || slot == kFreshSlots[1]) {
      // A model nobody has asked for before: always a compile. The last
      // kTargetsPerSize targets are the largest.
      op_.entry.kind = QueryKind::kGnn101;
      op_.entry.gnn = std::make_shared<Gnn101Model>(
          Gnn101Model::Random({kLabels, 16, 16, 16}, Activation::kReLU, 0.5,
                              &rng)
              .value());
      const uint64_t fresh = 2 * block + (slot == kFreshSlots[1]);
      op_.graph = &targets_[targets_.size() - 1 - fresh % kTargetsPerSize];
      return;
    }
    const double z = rng.NextDouble();
    const auto r = static_cast<size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), z) -
        zipf_cdf_.begin());
    op_.entry = pool_[std::min(r, kPoolSize - 1)];
    op_.graph = &targets_[i % targets_.size()];
  }

  Status RunOp(uint64_t, Tracer* tracer) override {
    ExprPtr expr;
    if (op_.entry.kind == QueryKind::kText) {
      ScopedSpan span(tracer, Layer::kParse);
      GELC_ASSIGN_OR_RETURN(expr, ParseExpr(op_.entry.text));
    } else {
      ScopedSpan span(tracer, Layer::kModelLower);
      GELC_ASSIGN_OR_RETURN(expr, op_.entry.kind == QueryKind::kGnn101
                                      ? CompileGnn101ToGel(*op_.entry.gnn)
                                      : CompileGinToGel(*op_.entry.gin));
    }
    op_.expr = expr;
    const size_t hits_before = cache_->hits();
    Result<PlanPtr> plan = [&] {
      ScopedSpan span(tracer, Layer::kPlanCache);
      return cache_->GetOrCompile(expr);
    }();
    hit_flags_.push_back(cache_->hits() > hits_before);
    if (plan.ok()) {
      op_.plan = *plan;
      ScopedSpan span(tracer, Layer::kExec);
      GELC_ASSIGN_OR_RETURN(op_.out, ExecutePlan(**plan, *op_.graph));
      return Status::OK();
    }
    if (plan.status().code() != StatusCode::kUnimplemented ||
        op_.graph->num_vertices() > 64) {
      return plan.status();
    }
    ++fallbacks_;
    ScopedSpan span(tracer, Layer::kInterp);
    Evaluator eval(*op_.graph);
    if (expr->free_vars() == 0) {
      GELC_ASSIGN_OR_RETURN(std::vector<double> v, eval.EvalClosed(expr));
      op_.out = Matrix::RowVector(v);
    } else {
      GELC_ASSIGN_OR_RETURN(op_.out, eval.EvalVertex(expr));
    }
    return Status::OK();
  }

  bool SampledCheck(uint64_t i) const override {
    return MixSeed(seed_ ^ 0xC4EC, i) % kCheckEvery == 0;
  }

  OpOutcome CheckOp(uint64_t i, bool full, bool inject) override {
    OpOutcome out;
    const bool closed = op_.expr->free_vars() == 0;
    const size_t rows = closed ? 1 : op_.graph->num_vertices();
    out.ok = op_.out.rows() == rows && op_.out.cols() == op_.expr->dim() &&
             AllFinite(op_.out);
    out.digest = MatrixDigest(op_.out);
    if (!full) return out;
    if (op_.plan == nullptr) {
      // The fallback's reference: the Evaluator on a relabelled copy
      // (permutation invariance), compared row by row through the map.
      out.ok = out.ok && CheckInterpByPermutation(i, inject);
      return out;
    }
    // The plan's reference: the Evaluator on a small graph, bit for bit.
    const Graph& small = small_[i % small_.size()];
    Result<Matrix> got = ExecutePlan(*op_.plan, small);
    Evaluator eval(small);
    Result<Matrix> want = closed ? [&]() -> Result<Matrix> {
      GELC_ASSIGN_OR_RETURN(std::vector<double> v, eval.EvalClosed(op_.expr));
      return Matrix::RowVector(v);
    }()
                                 : eval.EvalVertex(op_.expr);
    if (!got.ok() || !want.ok()) return {false, out.digest};
    if (inject) Corrupt(&*got);
    out.ok = out.ok && BitEqual(*got, *want);
    // Models also have a hand-written forward on the target graph itself.
    if (op_.entry.kind == QueryKind::kGnn101) {
      Result<Matrix> hand = op_.entry.gnn->VertexEmbeddings(*op_.graph);
      out.ok = out.ok && hand.ok() && BitEqual(*hand, op_.out);
    } else if (op_.entry.kind == QueryKind::kGin) {
      Result<Matrix> hand = op_.entry.gin->VertexEmbeddings(*op_.graph);
      out.ok = out.ok && hand.ok() && BitEqual(*hand, op_.out);
    }
    return out;
  }

  std::string ReportJson() const override {
    // Plan-cache warm-up: hit ratio over the first tenth of each session
    // against the rest of it.
    double hits[2] = {};
    double lookups[2] = {};
    for (size_t k = 0; k < hit_flags_.size(); ++k) {
      const int rest = k % kSessionOps >= kSessionOps / 10;
      hits[rest] += hit_flags_[k];
      lookups[rest] += 1;
    }
    return "{\"pool_size\": " + std::to_string(kPoolSize) +
           ", \"session_ops\": " + std::to_string(kSessionOps) +
           ", \"hit_ratio_session_first_tenth\": " +
           std::to_string(lookups[0] ? hits[0] / lookups[0] : 0.0) +
           ", \"hit_ratio_session_rest\": " +
           std::to_string(lookups[1] ? hits[1] / lookups[1] : 0.0) +
           ", \"fallbacks\": " + std::to_string(fallbacks_) + "}";
  }

 private:
  bool CheckInterpByPermutation(uint64_t i, bool inject) {
    const Graph& g = *op_.graph;
    Rng rng(MixSeed(seed_ ^ 0x9E4, i));
    const std::vector<size_t> perm = rng.Permutation(g.num_vertices());
    Result<Graph> pg = g.Permuted(perm);
    if (!pg.ok()) return false;
    Evaluator eval(*pg);
    Matrix got = op_.out;
    if (inject) Corrupt(&got);
    if (op_.expr->free_vars() == 0) {
      Result<std::vector<double>> want = eval.EvalClosed(op_.expr);
      return want.ok() && BitEqual(got, Matrix::RowVector(*want));
    }
    Result<Matrix> want = eval.EvalVertex(op_.expr);
    if (!want.ok() || want->rows() != got.rows() || want->cols() != got.cols())
      return false;
    Matrix mapped(got.rows(), got.cols());
    for (size_t v = 0; v < got.rows(); ++v)
      mapped.SetRow(v, want->Row(perm[v]));
    return BitEqual(got, mapped);
  }

  struct Op {
    PoolEntry entry;
    const Graph* graph = nullptr;
    ExprPtr expr;
    PlanPtr plan;
    Matrix out;
  };

  uint64_t seed_;
  std::vector<Graph> pristine_targets_;
  std::vector<Graph> pristine_small_;
  std::vector<Graph> targets_;
  std::vector<Graph> small_;
  std::vector<PoolEntry> pool_;
  std::vector<std::string> non_plannable_;
  std::vector<double> zipf_cdf_;
  std::unique_ptr<PlanCache> cache_;
  Op op_;
  std::vector<bool> hit_flags_;
  uint64_t fallbacks_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeQueryWorkload(uint64_t seed) {
  return std::make_unique<QueryWorkload>(seed);
}

}  // namespace perfbench
}  // namespace gelc
