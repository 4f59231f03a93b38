// Tests for the GNN library: GNN-101, MPNN variants, invariance (slide 11),
// aggregation behaviour, and ERM training (slides 16-20).
#include <gtest/gtest.h>

#include "base/rng.h"
#include "gnn/gnn101.h"
#include "gnn/mlp.h"
#include "gnn/mpnn.h"
#include "gnn/trainable.h"
#include "graph/generators.h"

namespace gelc {
namespace {

TEST(MlpTest, EmptyIsIdentity) {
  Mlp mlp;
  Matrix x = {{1, 2}, {3, 4}};
  EXPECT_EQ(mlp.Forward(x), x);
}

TEST(MlpTest, SingleLayerMatchesManual) {
  MlpLayer l;
  l.w = Matrix({{1, 0}, {0, 2}});
  l.b = Matrix({{1, -1}});
  l.act = Activation::kReLU;
  Mlp mlp({l});
  Matrix x = {{1, 1}};
  EXPECT_EQ(mlp.Forward(x), Matrix({{2, 1}}));
  Matrix y = {{-5, 0}};
  EXPECT_EQ(mlp.Forward(y), Matrix({{0, 0}}));
}

TEST(MlpTest, RandomShapes) {
  Rng rng(1);
  Result<Mlp> mlp = Mlp::Random({3, 8, 2}, Activation::kReLU,
                                Activation::kIdentity, 0.5, &rng);
  ASSERT_TRUE(mlp.ok());
  EXPECT_EQ(mlp->in_dim(), 3u);
  EXPECT_EQ(mlp->out_dim(), 2u);
  Matrix out = mlp->Forward(Matrix(5, 3, 1.0));
  EXPECT_EQ(out.rows(), 5u);
  EXPECT_EQ(out.cols(), 2u);
  EXPECT_FALSE(Mlp::Random({3}, Activation::kReLU, Activation::kIdentity,
                           0.5, &rng)
                   .ok());
}

TEST(Gnn101Test, HandWeightsComputeDegree) {
  // One layer, identity activation, w1 = 0, w2 = 1 on 1-dim all-ones
  // features: output = degree.
  Gnn101Layer l;
  l.w1 = Matrix({{0.0}});
  l.w2 = Matrix({{1.0}});
  l.b = Matrix({{0.0}});
  l.act = Activation::kIdentity;
  Gnn101Model model({l});
  Graph star = StarGraph(3);
  Matrix f = *model.VertexEmbeddings(star);
  EXPECT_EQ(f.At(0, 0), 3.0);  // hub
  for (size_t v = 1; v <= 3; ++v) EXPECT_EQ(f.At(v, 0), 1.0);
}

TEST(Gnn101Test, TwoLayersPropagateTwoHops) {
  // Same degree layer twice: second layer sums neighbor degrees.
  Gnn101Layer l;
  l.w1 = Matrix({{0.0}});
  l.w2 = Matrix({{1.0}});
  l.b = Matrix({{0.0}});
  l.act = Activation::kIdentity;
  Gnn101Model model({l, l});
  Graph p = PathGraph(4);  // degrees 1,2,2,1
  Matrix f = *model.VertexEmbeddings(p);
  EXPECT_EQ(f.At(0, 0), 2.0);      // neighbor degrees of 0: {2}
  EXPECT_EQ(f.At(1, 0), 3.0);      // {1, 2}
}

TEST(Gnn101Test, FeatureDimValidated) {
  Rng rng(2);
  Gnn101Model model = *Gnn101Model::Random({3, 4}, Activation::kReLU, 0.5,
                                           &rng);
  Graph g = Graph::Unlabeled(4);  // feature dim 1 != 3
  EXPECT_FALSE(model.VertexEmbeddings(g).ok());
}

TEST(Gnn101Test, ReadoutRequiresConfiguration) {
  Gnn101Layer l;
  l.w1 = Matrix({{1.0}});
  l.w2 = Matrix({{1.0}});
  l.b = Matrix({{0.0}});
  Gnn101Model model({l});
  EXPECT_FALSE(model.GraphEmbedding(PathGraph(3)).ok());
}

TEST(Gnn101Test, InvarianceUnderPermutation) {
  Rng rng(3);
  Gnn101Model model =
      *Gnn101Model::Random({1, 8, 8}, Activation::kTanh, 0.7, &rng);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g = RandomGnp(10, 0.35, &rng);
    std::vector<size_t> perm = rng.Permutation(10);
    Graph h = g.Permuted(perm).value();
    Matrix fg = *model.VertexEmbeddings(g);
    Matrix fh = *model.VertexEmbeddings(h);
    for (size_t v = 0; v < 10; ++v)
      EXPECT_TRUE(fg.Row(v).AllClose(fh.Row(perm[v]), 1e-9));
    Matrix eg = *model.GraphEmbedding(g);
    Matrix eh = *model.GraphEmbedding(h);
    EXPECT_TRUE(eg.AllClose(eh, 1e-9));
  }
}

TEST(AggregateTest, SumMeanMaxKnownValues) {
  Graph p = PathGraph(3);
  Matrix f = {{1, 10}, {2, 20}, {4, 40}};
  Matrix sum = AggregateNeighbors(p, f, Aggregation::kSum);
  EXPECT_EQ(sum.Row(0), Matrix({{2, 20}}));
  EXPECT_EQ(sum.Row(1), Matrix({{5, 50}}));
  Matrix mean = AggregateNeighbors(p, f, Aggregation::kMean);
  EXPECT_EQ(mean.Row(1), Matrix({{2.5, 25}}));
  Matrix mx = AggregateNeighbors(p, f, Aggregation::kMax);
  EXPECT_EQ(mx.Row(1), Matrix({{4, 40}}));
}

TEST(AggregateTest, IsolatedVertexAggregatesToZero) {
  Graph g = Graph::Unlabeled(2);  // no edges
  Matrix f = {{3, -1}, {5, 2}};
  for (Aggregation agg :
       {Aggregation::kSum, Aggregation::kMean, Aggregation::kMax}) {
    Matrix out = AggregateNeighbors(g, f, agg);
    EXPECT_EQ(out, Matrix(2, 2)) << AggregationName(agg);
  }
}

TEST(AggregateTest, PoolVariants) {
  Matrix f = {{1, -5}, {3, 7}};
  EXPECT_EQ(PoolVertices(f, Aggregation::kSum), Matrix({{4, 2}}));
  EXPECT_EQ(PoolVertices(f, Aggregation::kMean), Matrix({{2, 1}}));
  EXPECT_EQ(PoolVertices(f, Aggregation::kMax), Matrix({{3, 7}}));
}

class MpnnInvarianceTest
    : public ::testing::TestWithParam<Aggregation> {};

TEST_P(MpnnInvarianceTest, GraphEmbeddingInvariant) {
  Rng rng(5);
  MpnnModel model = *MpnnModel::Random({1, 6, 6}, GetParam(), 0.7, &rng);
  for (int trial = 0; trial < 4; ++trial) {
    Graph g = RandomGnp(9, 0.4, &rng);
    Graph h = g.Permuted(rng.Permutation(9)).value();
    Matrix eg = *model.GraphEmbedding(g);
    Matrix eh = *model.GraphEmbedding(h);
    EXPECT_TRUE(eg.AllClose(eh, 1e-9)) << AggregationName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllAggregations, MpnnInvarianceTest,
                         ::testing::Values(Aggregation::kSum,
                                           Aggregation::kMean,
                                           Aggregation::kMax));

TEST(GinTest, InvarianceAndShape) {
  Rng rng(7);
  GinModel model = *GinModel::Random({1, 5, 5}, 0.7, &rng);
  Graph g = RandomGnp(8, 0.4, &rng);
  Graph h = g.Permuted(rng.Permutation(8)).value();
  EXPECT_TRUE((*model.GraphEmbedding(g)).AllClose(*model.GraphEmbedding(h),
                                                  1e-9));
  EXPECT_EQ((*model.VertexEmbeddings(g)).cols(), 5u);
}

TEST(GcnTest, InvarianceUnderPermutation) {
  Rng rng(8);
  GcnModel model = *GcnModel::Random({1, 6}, 0.7, &rng);
  Graph g = RandomGnp(8, 0.4, &rng);
  std::vector<size_t> perm = rng.Permutation(8);
  Graph h = g.Permuted(perm).value();
  Matrix fg = *model.VertexEmbeddings(g);
  Matrix fh = *model.VertexEmbeddings(h);
  for (size_t v = 0; v < 8; ++v)
    EXPECT_TRUE(fg.Row(v).AllClose(fh.Row(perm[v]), 1e-9));
}

TEST(GraphSageTest, InvarianceUnderPermutation) {
  Rng rng(9);
  GraphSageModel model = *GraphSageModel::Random({1, 6}, 0.7, &rng);
  Graph g = RandomGnp(8, 0.4, &rng);
  std::vector<size_t> perm = rng.Permutation(8);
  Graph h = g.Permuted(perm).value();
  Matrix fg = *model.VertexEmbeddings(g);
  Matrix fh = *model.VertexEmbeddings(h);
  for (size_t v = 0; v < 8; ++v)
    EXPECT_TRUE(fg.Row(v).AllClose(fh.Row(perm[v]), 1e-9));
}

TEST(MpnnModelTest, SumSeparatesWhatMeanCannot) {
  // K_{1,2} star vs K_{1,3} star with constant features: mean-aggregation
  // vertex embeddings of hubs coincide in the first layer, sum separates
  // by degree. Graph-level: mean-MPNN cannot distinguish a graph from its
  // "doubled" disjoint self-union; sum can.
  Graph c3 = CycleGraph(3);
  Graph c3c3 = *Graph::DisjointUnion(CycleGraph(3), CycleGraph(3));
  Rng rng(11);
  bool sum_separates = false;
  for (int i = 0; i < 10; ++i) {
    MpnnModel sum_model =
        *MpnnModel::Random({1, 5, 5}, Aggregation::kSum, 0.8, &rng);
    Matrix a = *sum_model.GraphEmbedding(c3);
    Matrix b = *sum_model.GraphEmbedding(c3c3);
    if (a.MaxAbsDiff(b) > 1e-6) sum_separates = true;
  }
  EXPECT_TRUE(sum_separates);
}

TEST(TrainableTest, ConfigValidation) {
  TrainableGnn::Config bad;
  bad.widths = {3};
  EXPECT_FALSE(TrainableGnn::Create(bad).ok());
  bad.widths = {3, 4};
  bad.num_outputs = 0;
  EXPECT_FALSE(TrainableGnn::Create(bad).ok());
}

TEST(TrainableTest, NodeClassifierLearnsCommunities) {
  Rng rng(21);
  NodeDataset ds = SyntheticCitations(80, 2, 0.2, &rng);
  TrainOptions opt;
  opt.epochs = 120;
  opt.learning_rate = 0.02;
  opt.hidden_widths = {8};
  Result<TrainReport> report = TrainNodeClassifier(ds, opt);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->train_accuracy, 0.9);
  EXPECT_GT(report->test_accuracy, 0.8);
  // Loss decreased.
  EXPECT_LT(report->loss_history.back(), report->loss_history.front());
}

TEST(TrainableTest, GraphClassifierLearnsMolecules) {
  Rng rng(23);
  GraphDataset ds = SyntheticMolecules(60, &rng);
  TrainOptions opt;
  opt.epochs = 120;
  opt.learning_rate = 0.02;
  opt.hidden_widths = {8, 8};
  Result<TrainReport> report = TrainGraphClassifier(ds, opt);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->train_accuracy, 0.85);
  EXPECT_GT(report->test_accuracy, 0.7);
}

TEST(TrainableTest, LinkPredictorBeatsChance) {
  Rng rng(25);
  LinkDataset ds = SyntheticSocialLinks(200, &rng);
  TrainOptions opt;
  opt.epochs = 100;
  opt.learning_rate = 0.02;
  opt.hidden_widths = {8};
  Result<TrainReport> report = TrainLinkPredictor(ds, opt);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->train_accuracy, 0.7);
  EXPECT_GT(report->test_accuracy, 0.6);
}

// Pins every reported bit of a short run of each trainer, including the
// multi-minibatch graph path. The thresholds above survive any change
// that still learns; these literals only survive one that computes the
// same floating-point operations in the same order. They hold at any
// thread count and in the forced-scalar SIMD tier (not under the opt-in
// FMA tier, which may change low-order bits).
struct GoldenRun {
  std::vector<double> loss_history;
  double train_accuracy;
  double test_accuracy;
};

void ExpectGolden(const Result<TrainReport>& report, const GoldenRun& want) {
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->loss_history, want.loss_history);
  EXPECT_EQ(report->train_accuracy, want.train_accuracy);
  EXPECT_EQ(report->test_accuracy, want.test_accuracy);
}

TEST(TrainableTest, LossHistoryGolden) {
  TrainOptions opt;
  opt.epochs = 4;
  opt.learning_rate = 0.05;
  opt.hidden_widths = {4};

  Rng node_rng(31);
  ExpectGolden(
      TrainNodeClassifier(SyntheticCitations(30, 2, 0.3, &node_rng), opt),
      {{0x1.712d2bca1e7fbp-1, 0x1.3b7a6966db11bp-1, 0x1.0a8d2eb188f0fp-1,
        0x1.babf345237372p-2},
       0x1p+0,
       0x1.ddddddddddddep-1});

  Rng graph_rng(33);
  GraphDataset graphs = SyntheticMolecules(12, &graph_rng);
  ExpectGolden(TrainGraphClassifier(graphs, opt),
               {{0x1.972348d4656p-1, 0x1.bb9a7b840a663p-1,
                 0x1.fce4126a3f64p-2, 0x1.1e0a4a8bffcb4p-1},
                0x1.4p-1,
                0x1p-1});
  // Three minibatches per epoch: the loss is the scaled sum over batches
  // divided by the training-split size.
  TrainOptions minibatched = opt;
  minibatched.batch_size = 3;
  ExpectGolden(TrainGraphClassifier(graphs, minibatched),
               {{0x1.972348d4656p-1, 0x1.bb9a7b840a663p-1,
                 0x1.fce4126a3f642p-2, 0x1.1e0a4a8bffcb4p-1},
                0x1.4p-1,
                0x1p-1});

  Rng link_rng(35);
  ExpectGolden(
      TrainLinkPredictor(SyntheticSocialLinks(30, &link_rng), opt),
      {{0x1.4f5ac9cd0d71p-1, 0x1.29ff37220849dp-1, 0x1.0febcb33c237p-1,
        0x1.ed4ef2574f734p-2},
       0x1p+0,
       0x1p-1});
}

}  // namespace
}  // namespace gelc
