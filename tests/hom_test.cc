// Tests for tree enumeration and homomorphism counting, including the
// Dell-Grohe-Rattan property (slide 27): CR-equivalence coincides with
// equal tree-hom profiles.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "base/rng.h"
#include "graph/generators.h"
#include "hom/hom_count.h"
#include "hom/trees.h"
#include "wl/color_refinement.h"

namespace gelc {
namespace {

TEST(TreesTest, CanonicalFormInvariantUnderRelabeling) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    Graph t = RandomTree(9, &rng);
    Graph s = t.Permuted(rng.Permutation(9)).value();
    EXPECT_EQ(*TreeCanonicalForm(t), *TreeCanonicalForm(s));
  }
}

TEST(TreesTest, CanonicalFormSeparatesPathFromStar) {
  EXPECT_NE(*TreeCanonicalForm(PathGraph(4)),
            *TreeCanonicalForm(StarGraph(3)));
}

TEST(TreesTest, NonTreesRejected) {
  EXPECT_FALSE(TreeCanonicalForm(CycleGraph(4)).ok());
  EXPECT_FALSE(TreeCanonicalForm(Graph::Unlabeled(2)).ok());  // disconnected
  EXPECT_FALSE(TreeCanonicalForm(Graph::Unlabeled(0)).ok());
}

// The largest catalogue, built once and shared by the tests below.
const std::vector<Graph>& AllTrees14() {
  static const std::vector<Graph> trees = *AllTreesUpTo(14);
  return trees;
}

bool SameGraph(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices()) return false;
  for (VertexId v = 0; v < a.num_vertices(); ++v)
    if (a.Neighbors(v) != b.Neighbors(v)) return false;
  return true;
}

// Known counts of non-isomorphic trees on n vertices (OEIS A000055):
// 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159.
struct TreeCountCase {
  size_t max_n;
  size_t cumulative;
};

class TreeCountTest : public ::testing::TestWithParam<TreeCountCase> {};

// Also checks that each catalogue is a prefix of the largest one, which
// callers comparing profiles across catalogue sizes rely on.
TEST_P(TreeCountTest, MatchesOeisA000055Cumulative) {
  Result<std::vector<Graph>> trees = AllTreesUpTo(GetParam().max_n);
  ASSERT_TRUE(trees.ok());
  EXPECT_EQ(trees->size(), GetParam().cumulative);
  const std::vector<Graph>& all = AllTrees14();
  ASSERT_LE(trees->size(), all.size());
  for (size_t i = 0; i < trees->size(); ++i) {
    EXPECT_TRUE(SameGraph((*trees)[i], all[i])) << "tree " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Counts, TreeCountTest,
    ::testing::Values(TreeCountCase{1, 1}, TreeCountCase{2, 2},
                      TreeCountCase{3, 3}, TreeCountCase{4, 5},
                      TreeCountCase{5, 8}, TreeCountCase{6, 14},
                      TreeCountCase{7, 25}, TreeCountCase{8, 48},
                      TreeCountCase{9, 95}, TreeCountCase{10, 201},
                      TreeCountCase{11, 436}, TreeCountCase{12, 987},
                      TreeCountCase{13, 2288}, TreeCountCase{14, 5447}));

// Every output is a tree and no two are isomorphic; with the A000055 counts
// above this makes the catalogue exactly one tree per isomorphism class.
TEST(TreesTest, CatalogueTreesArePairwiseNonIsomorphic) {
  const std::vector<Graph>& trees = AllTrees14();
  std::set<std::string> forms;
  for (const Graph& t : trees) {
    ASSERT_EQ(t.num_edges() + 1, t.num_vertices());
    ASSERT_EQ(t.ConnectedComponents().size(), 1u);
    Result<std::string> form = TreeCanonicalForm(t);
    ASSERT_TRUE(form.ok());
    EXPECT_TRUE(forms.insert(*form).second) << *form;
  }
  EXPECT_EQ(forms.size(), trees.size());
}

TEST(TreesTest, EnumerationBoundsChecked) {
  EXPECT_FALSE(AllTreesUpTo(0).ok());
  EXPECT_FALSE(AllTreesUpTo(15).ok());
}

TEST(HomTest, SingleVertexCountsVertices) {
  Graph k1 = Graph::Unlabeled(1);
  EXPECT_EQ(*CountTreeHomomorphisms(k1, CycleGraph(5)), 5);
}

TEST(HomTest, EdgeCountsArcs) {
  // hom(K2, G) = number of arcs = 2m for undirected G.
  Graph k2 = PathGraph(2);
  EXPECT_EQ(*CountTreeHomomorphisms(k2, CycleGraph(5)), 10);
  EXPECT_EQ(*CountTreeHomomorphisms(k2, CompleteGraph(4)), 12);
}

TEST(HomTest, PathIntoCompleteGraph) {
  // hom(P3, K_n) = n(n-1)^2 walks of length 2.
  Graph p3 = PathGraph(3);
  EXPECT_EQ(*CountTreeHomomorphisms(p3, CompleteGraph(4)), 4 * 3 * 3);
  EXPECT_EQ(*CountTreeHomomorphisms(p3, CompleteGraph(5)), 5 * 4 * 4);
}

TEST(HomTest, PathHomsAreWalkCounts) {
  // hom(P_{k+1}, G) = number of walks of length k = sum of A^k entries.
  Rng rng(3);
  Graph g = RandomGnp(8, 0.4, &rng);
  Matrix a = g.AdjacencyMatrix();
  Matrix power = Matrix::Identity(8);
  for (size_t k = 1; k <= 4; ++k) {
    power = power.MatMul(a);
    Graph path = PathGraph(k + 1);
    EXPECT_EQ(*CountTreeHomomorphisms(path, g),
              static_cast<int64_t>(power.Sum()))
        << "walks of length " << k;
  }
}

TEST(HomTest, StarIntoStar) {
  // hom(S3, S3): center->center: 3^3 = 27; center->leaf: each leaf of the
  // pattern must map to the hub: 1 each, 3 choices of center image... full
  // count = 27 + 3*1 = 30.
  Graph s3 = StarGraph(3);
  EXPECT_EQ(*CountTreeHomomorphisms(s3, s3), 30);
}

TEST(HomTest, RootedCountsSumToTotal) {
  Rng rng(4);
  Graph g = RandomGnp(9, 0.4, &rng);
  Graph t = RandomTree(5, &rng);
  int64_t total = *CountTreeHomomorphisms(t, g);
  std::vector<int64_t> rooted = *CountRootedTreeHomomorphisms(t, 0, g);
  int64_t sum = 0;
  for (int64_t x : rooted) sum += x;
  EXPECT_EQ(sum, total);
}

TEST(HomTest, RootChoiceDoesNotChangeTotal) {
  Rng rng(5);
  Graph g = RandomGnp(8, 0.5, &rng);
  Graph t = RandomTree(6, &rng);
  int64_t reference = 0;
  for (VertexId r = 0; r < t.num_vertices(); ++r) {
    std::vector<int64_t> rooted = *CountRootedTreeHomomorphisms(t, r, g);
    int64_t sum = 0;
    for (int64_t x : rooted) sum += x;
    if (r == 0) {
      reference = sum;
    } else {
      EXPECT_EQ(sum, reference) << "root " << r;
    }
  }
}

TEST(HomTest, RejectsNonTreePatterns) {
  EXPECT_FALSE(CountTreeHomomorphisms(CycleGraph(3), PathGraph(4)).ok());
  EXPECT_FALSE(
      CountRootedTreeHomomorphisms(PathGraph(3), 7, PathGraph(4)).ok());
}

TEST(HomTest, IsolatedTargetGivesZeroForEdges) {
  Graph isolated = Graph::Unlabeled(4);
  EXPECT_EQ(*CountTreeHomomorphisms(PathGraph(2), isolated), 0);
  EXPECT_EQ(*CountTreeHomomorphisms(Graph::Unlabeled(1), isolated), 4);
}

TEST(HomTest, ProfileInvariantUnderIsomorphism) {
  Rng rng(6);
  std::vector<Graph> trees = *AllTreesUpTo(6);
  Graph g = RandomGnp(9, 0.4, &rng);
  Graph h = g.Permuted(rng.Permutation(9)).value();
  EXPECT_EQ(*TreeHomProfile(g, trees), *TreeHomProfile(h, trees));
}

// The Dell-Grohe-Rattan theorem, sampled: CR-equivalent graphs have equal
// tree-hom profiles, CR-separated graphs differ on some small tree.
TEST(HomTest, DgrOnCrHardPair) {
  auto [c6, two_c3] = Cr_HardPair();
  std::vector<Graph> trees = *AllTreesUpTo(7);
  // CR-equivalent -> equal profiles over ALL trees (here: all up to 7).
  EXPECT_EQ(*TreeHomProfile(c6, trees), *TreeHomProfile(two_c3, trees));
}

class DgrRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DgrRandomTest, ProfilesAgreeWithCrVerdict) {
  Rng rng(GetParam() * 7919);
  Graph a = RandomGnp(7, 0.4, &rng);
  Graph b = RandomGnp(7, 0.4, &rng);
  std::vector<Graph> trees = *AllTreesUpTo(6);
  bool cr_equiv = CrEquivalentGraphs(a, b);
  bool profiles_equal = *TreeHomProfile(a, trees) == *TreeHomProfile(b, trees);
  if (cr_equiv) {
    // Forward direction of DGR holds for every tree, in particular these.
    EXPECT_TRUE(profiles_equal);
  }
  if (profiles_equal) {
    // Small-graph contrapositive: on 7-vertex graphs, trees up to 6
    // vertices suffice to witness CR differences.
    EXPECT_TRUE(cr_equiv);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DgrRandomTest,
                         ::testing::Range<uint64_t>(1, 16));

TEST(HomTest, OverflowSurfacesAsError) {
  // A star pattern into a dense graph overflows int64 quickly: star with 8
  // leaves into K_30 gives 30 * 29^8 ≈ 1.5e13 per root — fine; push
  // further with a deep star into a large complete graph via repeated
  // squaring of degrees. Use a path of 8 into K_60: 60 * 59^7 ≈ 1.1e14 ok;
  // to overflow use star_8 into K_200: 200 * 199^8 ≈ 5e18 > int64 max.
  Graph star8 = StarGraph(8);
  Graph k200 = CompleteGraph(200);
  Result<int64_t> r = CountTreeHomomorphisms(star8, k200);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kArithmeticOverflow);
}

}  // namespace
}  // namespace gelc
