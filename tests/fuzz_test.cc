// Property-based fuzzing across modules:
//   - random GEL expressions are invariant under graph isomorphism;
//   - random MPNN-fragment expressions agree with their normal form;
//   - evaluator memoization never changes results;
//   - minimization never changes semantics or increases width;
//   - random tape programs match finite-difference gradients;
//   - hostile text inputs come back as a Status, never an abort.
#include <gtest/gtest.h>

#include <cmath>

#include "autodiff/tape.h"
#include "base/rng.h"
#include "core/analysis.h"
#include "core/eval.h"
#include "core/normal_form.h"
#include "core/parser.h"
#include "core/rewrite.h"
#include "graph/batch.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/update_log.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "wl/color_refinement.h"

namespace gelc {
namespace {

constexpr size_t kFeatureDim = 2;

Graph RandomLabelledGraph(Rng* rng, size_t max_n = 8) {
  size_t n = 4 + rng->NextBounded(max_n - 3);
  Graph g(n, kFeatureDim);
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = u + 1; v < n; ++v)
      if (rng->NextBernoulli(0.4)) {
          EXPECT_TRUE(g.AddEdge(static_cast<VertexId>(u),
          static_cast<VertexId>(v))
          .ok());
      }
    g.SetOneHotFeature(static_cast<VertexId>(u),
                       rng->NextBounded(kFeatureDim));
  }
  return g;
}

// Random GEL expression with one free variable `free_var`, up to `depth`
// levels of structure and up to 3 total variables.
ExprPtr RandomVertexExpr(Rng* rng, Var free_var, size_t depth) {
  if (depth == 0) {
    switch (rng->NextBounded(3)) {
      case 0:
        return *Expr::Label(rng->NextBounded(kFeatureDim), free_var);
      case 1:
        return *Expr::Constant({rng->NextUniform(-1, 1)});
      default: {
        // Degree-flavoured aggregate over a fresh variable.
        Var bound = (free_var + 1) % 3;
        return *Expr::Aggregate(theta::Sum(1), VarBit(bound),
                                *Expr::Constant({1.0}),
                                *Expr::Edge(free_var, bound));
      }
    }
  }
  switch (rng->NextBounded(5)) {
    case 0:
      return *Expr::Apply(omega::ActivationFn(Activation::kTanh, 1),
                          {RandomVertexExpr(rng, free_var, depth - 1)});
    case 1:
      return *Expr::Apply(omega::Add(1),
                          {RandomVertexExpr(rng, free_var, depth - 1),
                           RandomVertexExpr(rng, free_var, depth - 1)});
    case 2:
      return *Expr::Apply(omega::Multiply(1),
                          {RandomVertexExpr(rng, free_var, depth - 1),
                           RandomVertexExpr(rng, free_var, depth - 1)});
    case 3: {
      // Neighborhood aggregate of a subexpression of the bound variable.
      Var bound = (free_var + 1) % 3;
      ThetaPtr agg = rng->NextBounded(2) ? theta::Sum(1) : theta::Mean(1);
      return *Expr::Aggregate(agg, VarBit(bound),
                              RandomVertexExpr(rng, bound, depth - 1),
                              *Expr::Edge(free_var, bound));
    }
    default: {
      // Guarded count with an equality-constrained two-variable guard.
      Var bound = (free_var + 2) % 3;
      ExprPtr guard = *Expr::Apply(
          omega::Multiply(1),
          {*Expr::Edge(free_var, bound),
           *Expr::Compare(free_var, bound, CmpOp::kNeq)});
      return *Expr::Aggregate(theta::Count(1), VarBit(bound),
                              *Expr::Constant({1.0}), std::move(guard));
    }
  }
}

class GelInvarianceFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GelInvarianceFuzz, ExpressionInvariantUnderIsomorphism) {
  Rng rng(GetParam() * 15013);
  ExprPtr e = RandomVertexExpr(&rng, 0, 1 + rng.NextBounded(3));
  if (e->free_vars() != VarBit(0)) {
    // Constant-only draws may have no free variables; still fine to test.
    if (e->free_vars() != 0) GTEST_SKIP();
  }
  Graph g = RandomLabelledGraph(&rng);
  std::vector<size_t> perm = rng.Permutation(g.num_vertices());
  Graph h = g.Permuted(perm).value();
  Evaluator eg(g);
  Evaluator eh(h);
  if (e->free_vars() == 0) {
    std::vector<double> vg = *eg.EvalClosed(e);
    std::vector<double> vh = *eh.EvalClosed(e);
    for (size_t j = 0; j < vg.size(); ++j) EXPECT_NEAR(vg[j], vh[j], 1e-9);
    return;
  }
  Matrix vg = *eg.EvalVertex(e);
  Matrix vh = *eh.EvalVertex(e);
  for (size_t v = 0; v < g.num_vertices(); ++v)
    for (size_t j = 0; j < vg.cols(); ++j)
      EXPECT_NEAR(vg.At(v, j), vh.At(perm[v], j), 1e-9)
          << e->ToString() << " at vertex " << v;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GelInvarianceFuzz,
                         ::testing::Range<uint64_t>(1, 31));

class MemoFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemoFuzz, MemoizationDoesNotChangeResults) {
  Rng rng(GetParam() * 77023);
  ExprPtr e = RandomVertexExpr(&rng, 0, 1 + rng.NextBounded(3));
  Graph g = RandomLabelledGraph(&rng);
  Evaluator memo(g);
  Evaluator plain(g, Evaluator::Options{false, 50'000'000});
  EvalTable a = *memo.Eval(e);
  EvalTable b = *plain.Eval(e);
  ASSERT_EQ(a.data.size(), b.data.size());
  for (size_t i = 0; i < a.data.size(); ++i)
    EXPECT_DOUBLE_EQ(a.data[i], b.data[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoFuzz, ::testing::Range<uint64_t>(1, 13));

// Random MPNN-fragment expressions (strictly 2 variables, guarded):
// normal form must agree with direct evaluation.
ExprPtr RandomFragmentExpr(Rng* rng, Var v, size_t depth) {
  if (depth == 0) {
    if (rng->NextBounded(2)) {
      return *Expr::Label(rng->NextBounded(kFeatureDim), v);
    }
    return *Expr::Constant({rng->NextUniform(-1, 1)});
  }
  switch (rng->NextBounded(4)) {
    case 0:
      return *Expr::Apply(omega::ActivationFn(Activation::kReLU, 1),
                          {RandomFragmentExpr(rng, v, depth - 1)});
    case 1:
      return *Expr::Apply(omega::Add(1),
                          {RandomFragmentExpr(rng, v, depth - 1),
                           RandomFragmentExpr(rng, v, depth - 1)});
    default: {
      Var other = v == 0 ? 1 : 0;
      ThetaPtr agg;
      switch (rng->NextBounded(3)) {
        case 0:
          agg = theta::Sum(1);
          break;
        case 1:
          agg = theta::Mean(1);
          break;
        default:
          agg = theta::Max(1);
          break;
      }
      return *Expr::Aggregate(agg, VarBit(other),
                              RandomFragmentExpr(rng, other, depth - 1),
                              *Expr::Edge(v, other));
    }
  }
}

class NormalFormFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NormalFormFuzz, FragmentNormalFormAgrees) {
  Rng rng(GetParam() * 90001);
  ExprPtr e = RandomFragmentExpr(&rng, 0, 2 + rng.NextBounded(2));
  ASSERT_TRUE(CheckMpnnFragment(e).ok()) << e->ToString();
  Result<NormalFormProgram> p = NormalFormProgram::Normalize(e);
  ASSERT_TRUE(p.ok());
  Graph g = RandomLabelledGraph(&rng);
  Evaluator eval(g);
  if (e->free_vars() == 0) GTEST_SKIP();
  Matrix direct = *eval.EvalVertex(e);
  Matrix layered = *p->Run(g);
  EXPECT_TRUE(direct.AllClose(layered, 1e-10)) << e->ToString();

  // Minimization is a no-op semantically.
  ExprPtr m = *MinimizeVariables(e);
  EXPECT_LE(VariableWidth(m), VariableWidth(e));
  Matrix minimized = *eval.EvalVertex(m);
  EXPECT_TRUE(direct.AllClose(minimized, 1e-10));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalFormFuzz,
                         ::testing::Range<uint64_t>(1, 25));

// Random tape programs vs finite differences.
class TapeFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TapeFuzz, RandomProgramGradientsMatchFiniteDifference) {
  Rng rng(GetParam() * 31013);
  size_t rows = 2 + rng.NextBounded(3);
  size_t cols = 2 + rng.NextBounded(3);
  Parameter p(Matrix::RandomGaussian(rows, cols, 0.5, &rng));
  Matrix x = Matrix::RandomGaussian(cols, rows, 0.7, &rng);
  Matrix target = Matrix::RandomGaussian(rows, rows, 0.7, &rng);
  int plan = static_cast<int>(rng.NextBounded(4));

  auto build = [&](Tape* t) -> ValueId {
    ValueId w = t->Param(&p);
    ValueId h = t->MatMul(w, t->Input(x));  // rows x rows
    switch (plan) {
      case 0:
        h = t->Act(Activation::kTanh, h);
        break;
      case 1:
        h = t->Hadamard(h, h);
        break;
      case 2:
        h = t->Add(t->Act(Activation::kSigmoid, h), h);
        break;
      default:
        h = t->Scale(h, -0.7);
        break;
    }
    return t->Mse(h, target);
  };

  p.ZeroGrad();
  {
    Tape t;
    t.Backward(build(&t));
  }
  Matrix analytic = p.grad;
  const double eps = 1e-6;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      double orig = p.value.At(r, c);
      p.value.At(r, c) = orig + eps;
      Tape up;
      double fu = up.value(build(&up)).At(0, 0);
      p.value.At(r, c) = orig - eps;
      Tape down;
      double fd = down.value(build(&down)).At(0, 0);
      p.value.At(r, c) = orig;
      EXPECT_NEAR(analytic.At(r, c), (fu - fd) / (2 * eps), 1e-4)
          << "plan " << plan;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TapeFuzz, ::testing::Range<uint64_t>(1, 17));

// Random batches: packing must round-trip offsets/slices, reproduce the
// folded disjoint union's CSR bit for bit, and leave WL colors of every
// block exactly what the member graph gets standalone.
class GraphBatchFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphBatchFuzz, PackingRoundTripsAndPreservesWlColors) {
  Rng rng(GetParam() * 52501);
  size_t k = 1 + rng.NextBounded(6);
  size_t d = rng.NextBounded(3);  // 0 is a legal (empty) feature dim
  std::vector<Graph> graphs;
  for (size_t i = 0; i < k; ++i) {
    size_t n = 1 + rng.NextBounded(7);  // includes single-vertex graphs
    Graph g(n, d);
    for (size_t u = 0; u < n; ++u) {
      for (size_t v = u + 1; v < n; ++v)
        if (rng.NextBernoulli(0.35)) {
          EXPECT_TRUE(g.AddEdge(static_cast<VertexId>(u),
                                static_cast<VertexId>(v))
                          .ok());
        }
      if (d > 0)
        g.SetOneHotFeature(static_cast<VertexId>(u), rng.NextBounded(d));
    }
    graphs.push_back(std::move(g));
  }
  std::vector<const Graph*> ptrs;
  for (const Graph& g : graphs) ptrs.push_back(&g);
  Result<GraphBatch> batch = GraphBatch::Create(ptrs);
  ASSERT_TRUE(batch.ok());

  // Vertex-offset / segment-id / slice round trip.
  ASSERT_EQ(batch->num_graphs(), k);
  size_t total = 0;
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(batch->graph_offset(i), total);
    EXPECT_EQ(batch->graph_size(i), graphs[i].num_vertices());
    for (size_t v = 0; v < graphs[i].num_vertices(); ++v)
      EXPECT_EQ(batch->segment_of(total + v), i);
    EXPECT_EQ(batch->Slice(batch->features(), i), graphs[i].features());
    total += graphs[i].num_vertices();
  }
  EXPECT_EQ(batch->num_vertices(), total);

  // The packed adjacency is the folded disjoint union's CSR, bit for bit.
  Graph acc = graphs[0];
  for (size_t i = 1; i < k; ++i) acc = *Graph::DisjointUnion(acc, graphs[i]);
  const CsrMatrix& a = batch->adjacency();
  const CsrMatrix& b = acc.Csr().adjacency();
  EXPECT_EQ(a.row_offsets, b.row_offsets);
  EXPECT_EQ(a.col_indices, b.col_indices);

  // Joint color refinement: every batch block stabilizes to exactly the
  // colors its member graph gets standalone — message passing (and hence
  // WL) never crosses a block boundary.
  for (size_t i = 0; i < k; ++i) {
    CrColoring joint = RunColorRefinement({&acc, &graphs[i]});
    for (size_t v = 0; v < graphs[i].num_vertices(); ++v)
      EXPECT_EQ(joint.stable[0][batch->graph_offset(i) + v],
                joint.stable[1][v])
          << "graph " << i << " vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphBatchFuzz,
                         ::testing::Range<uint64_t>(1, 21));

// --------------------------------------------------------------------------

class UpdateLogFuzz : public ::testing::TestWithParam<uint64_t> {};

// Captures the deterministic metrics plane left behind by one replay of
// `log` onto a copy of `base`: registry reset, replay, snapshot with the
// schedule-dependent parallel.* metrics stripped — the same invariant
// subset `gelc_stats --deterministic` serializes.
std::string DeterministicReplayFingerprint(const Graph& base,
                                           const UpdateLog& log) {
  obs::SetMetricsEnabled(true);
  obs::ResetMetricsForTest();
  Graph g = base;
  (void)g.Csr();  // mutations take the delta path, as a streamer would
  ReplayOptions options;
  options.batch_size = 5;
  GELC_CHECK_OK(ReplayUpdateLog(log, &g, options, [&](const ReplayBatch&) {
    return Status::OK();
  }));
  obs::StatsSnapshot snap = obs::Snapshot();
  auto is_schedule = [](const std::string& name) {
    return name.rfind("parallel.", 0) == 0;
  };
  std::erase_if(snap.counters,
                [&](const auto& c) { return is_schedule(c.name); });
  std::erase_if(snap.gauges,
                [&](const auto& s) { return is_schedule(s.name); });
  std::erase_if(snap.histograms,
                [&](const auto& h) { return is_schedule(h.name); });
  snap.timings.clear();
  return obs::SnapshotJson(snap);
}

TEST_P(UpdateLogFuzz, SerializeParseReplayRoundTrips) {
  Rng rng(GetParam() * 19687);
  const bool directed = (GetParam() % 2) == 0;
  Graph base(6 + rng.NextBounded(8), kFeatureDim, directed);
  for (size_t v = 0; v < base.num_vertices(); ++v)
    base.SetOneHotFeature(static_cast<VertexId>(v),
                          rng.NextBounded(kFeatureDim));
  for (size_t u = 0; u < base.num_vertices(); ++u)
    for (size_t v = u + 1; v < base.num_vertices(); ++v)
      if (rng.NextBernoulli(0.25)) {
        EXPECT_TRUE(base.AddEdge(static_cast<VertexId>(u),
                                 static_cast<VertexId>(v))
                        .ok());
      }
  UpdateLog log = GenerateUpdateLog(base, 50, 0.35, &rng);

  // Text round trip is exact: serialize → parse yields the same ops, and
  // re-serializing reproduces the same bytes.
  std::string text = SerializeUpdateLog(log);
  Result<UpdateLog> parsed = ParseUpdateLog(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_vertices, log.num_vertices);
  EXPECT_EQ(parsed->directed, log.directed);
  EXPECT_EQ(parsed->ops, log.ops);
  EXPECT_EQ(SerializeUpdateLog(*parsed), text);

  // Replaying the parsed log reproduces the same final graph as the
  // original...
  Graph from_original = base;
  Graph from_parsed = base;
  GELC_CHECK_OK(ReplayUpdateLog(log, &from_original));
  GELC_CHECK_OK(ReplayUpdateLog(*parsed, &from_parsed));
  EXPECT_EQ(from_original.ToString(), from_parsed.ToString());
  EXPECT_EQ(from_original.num_arcs(), from_parsed.num_arcs());

  // ...and the same deterministic metrics fingerprint, byte for byte —
  // the `gelc_stats --deterministic` contract for the stream.* series.
  EXPECT_EQ(DeterministicReplayFingerprint(base, log),
            DeterministicReplayFingerprint(base, *parsed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateLogFuzz,
                         ::testing::Range<uint64_t>(1, 13));

// --------------------------------------------------------------------------
// Hostile inputs: each once aborted the process.

TEST(HostileInputTest, HugeGraphHeaderIsAStatus) {
  // Used to throw std::bad_alloc out of the Graph constructor.
  Result<Graph> g = ParseGraphText("graph 4000000000000 1 0");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(ParseGraphText("graph 4 4000000000000 0").ok());
  EXPECT_FALSE(ParseGraphText("graph 1000000 1000 0").ok());
  EXPECT_TRUE(ParseGraphText("graph 4 2 0\ne 0 1").ok());
}

std::string NestedRelu(size_t depth) {
  std::string text;
  for (size_t i = 0; i < depth; ++i) text += "relu(";
  text += "lab0(x0)";
  text.append(depth, ')');
  return text;
}

TEST(HostileInputTest, NestingAtTheCapSurvivesEveryConsumer) {
  // parser.h caps nesting at 512. A tree that deep must also print,
  // evaluate and free without overflowing the stack, since those recurse.
  constexpr size_t kCap = 512;
  {
    Result<ExprPtr> e = ParseExpr(NestedRelu(kCap));
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    EXPECT_EQ((*e)->ToString().size(), NestedRelu(kCap).size());
    Graph g(3, kFeatureDim);
    ASSERT_TRUE(g.AddEdge(0, 1).ok());
    g.SetOneHotFeature(0, 0);
    g.SetOneHotFeature(2, 0);
    Evaluator eval(g);
    Result<Matrix> m = eval.EvalVertex(*e);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    EXPECT_EQ(m->At(0, 0), 1.0);
    EXPECT_EQ(m->At(1, 0), 0.0);
    EXPECT_EQ(m->At(2, 0), 1.0);
  }  // the tree and the evaluator's memo table are freed here
  Result<ExprPtr> over = ParseExpr(NestedRelu(kCap + 1));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
}

TEST(HostileInputTest, PathologicalNestingIsAStatus) {
  // 10^4 levels parsed but overflowed the stack in the evaluator; 2 * 10^5
  // overflowed it in the old recursive-descent parser itself. Both are
  // past the cap, and 2 * 10^5 keeps the token buffer small.
  for (size_t depth : {size_t{10000}, size_t{200000}}) {
    Result<ExprPtr> e = ParseExpr(NestedRelu(depth));
    ASSERT_FALSE(e.ok()) << depth;
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument) << depth;
  }
}

}  // namespace
}  // namespace gelc
