// Workload `stream`: update replay with reads in between. One op is one
// update batch: ReplayUpdateLog -> IncrementalColorRefiner::Update over
// the touched vertices -> one SpMMDelta read over the uncompacted
// Graph::AdjacencyDeltaView(), into a reused output (a fresh 1 MB result
// per op fragments the heap: RSS grew by ~0.3 MB per op with SpMMDelta).
// Every kQueryEvery-th op also runs a
// compiled GEL query through ExecutePlan, whose Graph::Csr() call forces
// the pending delta to compact.
//
// The base graph is disjoint labelled communities. The benchmark writes
// its own log: most batches toggle edges inside one community (4 deletes
// + 4 inserts, so the edge count never drifts); one batch in 64 inserts a
// seeded wave of bridges between communities that a later batch removes.
// Local batches take the incremental patch path; a bridge wave's cone
// spans enough of the graph to take the full-refresh fallback. The graph
// stays in steady state across many compaction cycles.
#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "core/compile_gnn.h"
#include "core/plan_compile.h"
#include "core/plan_exec.h"
#include "gnn/gnn101.h"
#include "graph/csr.h"
#include "graph/update_log.h"
#include "inputs.h"
#include "tensor/sparse.h"
#include "wl/color_refinement.h"
#include "wl/incremental.h"
#include "workloads.h"

namespace gelc {
namespace perfbench {
namespace {

constexpr size_t kVertices = 8192;
constexpr size_t kCommunity = 32;
constexpr double kCommunityDensity = 0.25;
constexpr size_t kLabels = 4;
constexpr size_t kFeatureDim = 16;
constexpr size_t kToggles = 4;       // deletes (and inserts) per local batch
// One op in kWaveEvery inserts a wave of kWaveSize bridges, removed
// kWaveLife ops later (placed by index so every run has the same share).
constexpr uint64_t kWaveEvery = 64;
constexpr uint64_t kWaveSlot = 7;
constexpr size_t kWaveSize = 64;
constexpr uint64_t kWaveLife = 8;
constexpr uint64_t kQueryEvery = 16;
constexpr uint64_t kCheckEvery = 64;

Graph Communities(Rng* rng) {
  Graph g(kVertices, kLabels);
  for (size_t v = 0; v < kVertices; ++v)
    g.SetOneHotFeature(static_cast<VertexId>(v), rng->NextBounded(kLabels));
  for (size_t lo = 0; lo < kVertices; lo += kCommunity)
    for (size_t u = lo; u < lo + kCommunity; ++u)
      for (size_t v = u + 1; v < lo + kCommunity; ++v)
        if (rng->NextBernoulli(kCommunityDensity))
          GELC_CHECK_OK(g.AddEdge(static_cast<VertexId>(u),
                                  static_cast<VertexId>(v)));
  return g;
}

class StreamWorkload : public Workload {
 public:
  explicit StreamWorkload(uint64_t seed) : seed_(seed) {
    Rng rng(MixSeed(seed, 0x57E));
    pristine_ = Communities(&rng);
    features_ = Matrix::RandomUniform(kVertices, kFeatureDim, -1.0, 1.0, &rng);
    model_ = std::make_unique<Gnn101Model>(
        Gnn101Model::Random({kLabels, 8, 8}, Activation::kTanh, 0.5, &rng)
            .value());
  }

  uint64_t mix_period() const override { return kWaveEvery; }
  const char* name() const override { return "stream"; }

  void ResetInputs() override {
    refiner_.reset();
    graph_ = std::make_unique<Graph>(pristine_);
    plan_.reset();
    waves_.clear();
  }

  Status Setup(Tracer* tracer) override {
    {
      ScopedSpan span(tracer, Layer::kCsrBuild);
      (void)graph_->Csr();
    }
    {
      ScopedSpan span(tracer, Layer::kCrIncRefresh);
      refiner_ = std::make_unique<IncrementalColorRefiner>(graph_.get());
    }
    ScopedSpan span(tracer, Layer::kPlanCache);
    GELC_ASSIGN_OR_RETURN(ExprPtr e, CompileGnn101ToGel(*model_));
    PlanCache cache;
    GELC_ASSIGN_OR_RETURN(plan_, cache.GetOrCompile(e));
    return Status::OK();
  }

  void PrepareOp(uint64_t i) override {
    Rng rng(MixSeed(seed_, i));
    const Graph& g = *graph_;
    log_ = UpdateLog();
    log_.num_vertices = kVertices;
    if (!waves_.empty() && waves_.front().first == i) {
      for (const EdgeOp& op : waves_.front().second)
        log_.ops.push_back({EdgeOpKind::kDelete, op.u, op.v});
      waves_.pop_front();
      kind_ = 2;
    } else if (i % kWaveEvery == kWaveSlot) {
      std::vector<EdgeOp> wave;
      while (wave.size() < kWaveSize) {
        const auto u = static_cast<VertexId>(rng.NextBounded(kVertices));
        const auto v = static_cast<VertexId>(rng.NextBounded(kVertices));
        if (u / kCommunity == v / kCommunity || g.HasEdge(u, v)) continue;
        bool dup = false;
        for (const EdgeOp& w : wave)
          dup = dup || (w.u == u && w.v == v) || (w.u == v && w.v == u);
        if (!dup) wave.push_back({EdgeOpKind::kInsert, u, v});
      }
      log_.ops = wave;
      waves_.emplace_back(i + kWaveLife, std::move(wave));
      kind_ = 1;
    } else {
      // Toggle inside one community: delete present pairs, insert absent
      // ones, equally many of each.
      const size_t lo = rng.NextBounded(kVertices / kCommunity) * kCommunity;
      std::vector<EdgeOp> present;
      std::vector<EdgeOp> absent;
      for (size_t u = lo; u < lo + kCommunity; ++u)
        for (size_t v = u + 1; v < lo + kCommunity; ++v) {
          const EdgeOp op{EdgeOpKind::kInsert, static_cast<VertexId>(u),
                          static_cast<VertexId>(v)};
          (g.HasEdge(op.u, op.v) ? present : absent).push_back(op);
        }
      rng.Shuffle(&present);
      rng.Shuffle(&absent);
      const size_t k = std::min({kToggles, present.size(), absent.size()});
      for (size_t t = 0; t < k; ++t) {
        log_.ops.push_back({EdgeOpKind::kDelete, present[t].u, present[t].v});
        log_.ops.push_back(absent[t]);
      }
      kind_ = 0;
    }
    query_ = i % kQueryEvery == kQueryEvery - 1;
  }

  Status RunOp(uint64_t, Tracer* tracer) override {
    touched_.clear();
    {
      ScopedSpan span(tracer, Layer::kReplay);
      ReplayOptions options;
      options.batch_size = std::max<size_t>(1, log_.ops.size());
      GELC_RETURN_NOT_OK(ReplayUpdateLog(
          log_, graph_.get(), options, [&](const ReplayBatch& batch) {
            touched_.insert(touched_.end(), batch.touched.begin(),
                            batch.touched.end());
            return Status::OK();
          }));
    }
    {
      ScopedSpan span(tracer, Layer::kCrInc);
      refiner_->Update(touched_);
    }
    {
      ScopedSpan span(tracer, Layer::kSpmmDelta);
      const DeltaCsrView view = graph_->AdjacencyDeltaView();
      SpMMDeltaInto(*view.base, view.delta, features_, &out_);
    }
    if (query_) {
      ScopedSpan span(tracer, Layer::kExec);
      GELC_ASSIGN_OR_RETURN(query_out_, ExecutePlan(*plan_, *graph_));
    }
    return Status::OK();
  }

  bool SampledCheck(uint64_t i) const override {
    return i % kCheckEvery == kCheckEvery - 1;
  }

  OpOutcome CheckOp(uint64_t, bool full, bool inject) override {
    OpOutcome out;
    ++kind_count_[kind_];
    fallback_count_[kind_] += refiner_->last_was_fallback();
    const uint64_t shape[3] = {refiner_->rounds(), refiner_->partition_size(),
                               graph_->num_edges()};
    out.digest = MatrixDigest(out_) ^ HashBytes(shape, sizeof(shape));
    out.ok = out_.rows() == kVertices && out_.cols() == kFeatureDim &&
             refiner_->partition_size() <= kVertices;
    if (!full) return out;
    ++checkpoints_;
    Matrix got = out_;
    if (inject) Corrupt(&got);
    // The references: a from-scratch refinement, an SpMM over a freshly
    // built CSR, and the model's hand-written forward.
    out.ok = out.ok && SamePartition();
    const CsrGraph fresh(*graph_);
    out.ok = out.ok && BitEqual(got, SpMM(fresh.adjacency(), features_));
    if (query_) {
      Result<Matrix> hand = model_->VertexEmbeddings(*graph_);
      out.ok = out.ok && hand.ok() && BitEqual(*hand, query_out_);
    }
    return out;
  }

  std::string ReportJson() const override {
    const auto frac = [](uint64_t a, uint64_t b) {
      return std::to_string(b ? static_cast<double>(a) / static_cast<double>(b)
                              : 0.0);
    };
    return "{\"local_batches\": " + std::to_string(kind_count_[0]) +
           ", \"wave_inserts\": " + std::to_string(kind_count_[1]) +
           ", \"wave_removals\": " + std::to_string(kind_count_[2]) +
           ", \"fallback_share_local\": " +
           frac(fallback_count_[0], kind_count_[0]) +
           ", \"fallback_share_waves\": " +
           frac(fallback_count_[1] + fallback_count_[2],
                kind_count_[1] + kind_count_[2]) +
           ", \"checkpoints\": " + std::to_string(checkpoints_) +
           ", \"final_edges\": " + std::to_string(graph_->num_edges()) +
           ", \"base_edges\": " + std::to_string(pristine_.num_edges()) + "}";
  }

 private:
  // Incremental colors induce the from-scratch partition, with the same
  // round count (ids may differ; the partition is the invariant).
  bool SamePartition() const {
    const CrColoring scratch = RunColorRefinement({graph_.get()});
    if (scratch.rounds != refiner_->rounds()) return false;
    const std::vector<uint64_t>& inc = refiner_->colors();
    const std::vector<uint64_t>& ref = scratch.stable[0];
    std::unordered_map<uint64_t, uint64_t> fwd;
    std::unordered_map<uint64_t, uint64_t> back;
    for (size_t v = 0; v < inc.size(); ++v) {
      if (fwd.emplace(inc[v], ref[v]).first->second != ref[v]) return false;
      if (back.emplace(ref[v], inc[v]).first->second != inc[v]) return false;
    }
    return true;
  }

  uint64_t seed_;
  Graph pristine_;
  Matrix features_;
  std::unique_ptr<Gnn101Model> model_;
  std::unique_ptr<Graph> graph_;
  std::unique_ptr<IncrementalColorRefiner> refiner_;
  PlanPtr plan_;
  // Pending bridge removals: (op index, the wave's inserts).
  std::deque<std::pair<uint64_t, std::vector<EdgeOp>>> waves_;
  UpdateLog log_;
  int kind_ = 0;  // 0 local, 1 wave insert, 2 wave removal
  bool query_ = false;
  std::vector<VertexId> touched_;
  Matrix out_;
  Matrix query_out_;
  uint64_t kind_count_[3] = {};
  uint64_t fallback_count_[3] = {};
  uint64_t checkpoints_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeStreamWorkload(uint64_t seed) {
  return std::make_unique<StreamWorkload>(seed);
}

}  // namespace perfbench
}  // namespace gelc
