// Tests pinning down the WL-variant conventions (DESIGN.md) and the
// cycle-homomorphism counts: oblivious vs folklore k-WL relationships and
// trace-based hom(C_k, ·).
#include <gtest/gtest.h>

#include "base/rng.h"
#include "graph/generators.h"
#include "hom/hom_count.h"
#include "wl/color_refinement.h"
#include "wl/kwl.h"

namespace gelc {
namespace {

TEST(ObliviousKwlTest, ValidatesK) {
  Graph g = PathGraph(3);
  EXPECT_FALSE(RunObliviousKwl({&g}, 0).ok());
  EXPECT_FALSE(RunObliviousKwl({&g}, 5).ok());
}

TEST(ObliviousKwlTest, ObliviousTwoEquivalentToColorRefinement) {
  // The folklore convention shift: oblivious 2-WL ≡ CR ≡ folklore 1-WL.
  struct PairCase {
    Graph a, b;
  };
  std::vector<PairCase> cases;
  {
    auto [c6, two_c3] = Cr_HardPair();
    cases.push_back({std::move(c6), std::move(two_c3)});
  }
  cases.push_back({PathGraph(4), StarGraph(3)});
  cases.push_back({CycleGraph(5), CycleGraph(6)});
  {
    auto [shr, rook] = Srg16Pair();
    cases.push_back({std::move(shr), std::move(rook)});
  }
  for (const PairCase& c : cases) {
    bool cr = CrEquivalentGraphs(c.a, c.b);
    Result<bool> obl2 = ObliviousKwlEquivalentGraphs(c.a, c.b, 2);
    ASSERT_TRUE(obl2.ok());
    EXPECT_EQ(cr, *obl2);
  }
}

TEST(ObliviousKwlTest, ObliviousThreeMatchesFolkloreTwo) {
  // Oblivious (k+1)-WL ≡ folklore k-WL, sampled at k = 2.
  auto [c6, two_c3] = Cr_HardPair();
  EXPECT_EQ(*KwlEquivalentGraphs(c6, two_c3, 2),
            *ObliviousKwlEquivalentGraphs(c6, two_c3, 3));
  auto [shr, rook] = Srg16Pair();
  EXPECT_EQ(*KwlEquivalentGraphs(shr, rook, 2),
            *ObliviousKwlEquivalentGraphs(shr, rook, 3));
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    Graph a = RandomGnp(7, 0.4, &rng);
    Graph b = RandomGnp(7, 0.4, &rng);
    EXPECT_EQ(*KwlEquivalentGraphs(a, b, 2),
              *ObliviousKwlEquivalentGraphs(a, b, 3));
  }
}

TEST(ObliviousKwlTest, ObliviousWeakerThanFolkloreAtSameK) {
  // At the same k, oblivious k-WL is never stronger than folklore k-WL.
  Rng rng(5);
  for (int trial = 0; trial < 6; ++trial) {
    Graph a = RandomGnp(6, 0.4, &rng);
    Graph b = RandomGnp(6, 0.4, &rng);
    for (size_t k : {2u, 3u}) {
      bool folklore_equiv = *KwlEquivalentGraphs(a, b, k);
      bool oblivious_equiv = *ObliviousKwlEquivalentGraphs(a, b, k);
      if (folklore_equiv) {
        EXPECT_TRUE(oblivious_equiv) << "k=" << k;
      }
    }
  }
}

TEST(ObliviousKwlTest, InvariantUnderPermutation) {
  Rng rng(7);
  Graph g = RandomGnp(6, 0.4, &rng);
  Graph h = g.Permuted(rng.Permutation(6)).value();
  for (size_t k : {2u, 3u}) {
    EXPECT_TRUE(*ObliviousKwlEquivalentGraphs(g, h, k)) << k;
  }
}

TEST(CycleHomTest, KnownValues) {
  // hom(C_3, K4) = closed 3-walks = 4 * 3 * 2.
  EXPECT_EQ(*CountCycleHomomorphisms(3, CompleteGraph(4)), 24);
  // Triangle-free graphs have no closed 3-walks.
  EXPECT_EQ(*CountCycleHomomorphisms(3, CycleGraph(6)), 0);
  EXPECT_EQ(*CountCycleHomomorphisms(3, PetersenGraph()), 0);
  // Two triangles: 2 triangles x 3 starts x 2 directions.
  Graph two_c3 = *Graph::DisjointUnion(CycleGraph(3), CycleGraph(3));
  EXPECT_EQ(*CountCycleHomomorphisms(3, two_c3), 12);
  EXPECT_FALSE(CountCycleHomomorphisms(2, CompleteGraph(3)).ok());
}

TEST(CycleHomTest, MatchesAdjacencyPowerTrace) {
  Rng rng(11);
  Graph g = RandomGnp(9, 0.4, &rng);
  Matrix a = g.AdjacencyMatrix();
  Matrix power = Matrix::Identity(9);
  for (size_t k = 1; k <= 7; ++k) {
    power = power.MatMul(a);
    if (k < 3) continue;
    double trace = 0;
    for (size_t i = 0; i < 9; ++i) trace += power.At(i, i);
    EXPECT_EQ(*CountCycleHomomorphisms(k, g), static_cast<int64_t>(trace));
  }
}

TEST(CycleHomTest, SeparatesCrHardPairAsTwoWlPredicts) {
  // C6 vs 2xC3: 2-WL separates; the cycle profile witnesses it while the
  // tree profile (CR level) cannot.
  auto [c6, two_c3] = Cr_HardPair();
  std::vector<int64_t> pa = *CycleHomProfile(c6, 8);
  std::vector<int64_t> pb = *CycleHomProfile(two_c3, 8);
  EXPECT_NE(pa, pb);
  EXPECT_EQ(pa[0], 0);   // no triangles in C6
  EXPECT_EQ(pb[0], 12);  // 12 triangle homs in 2xC3
}

TEST(CycleHomTest, CospectralSrgPairHasEqualProfiles) {
  // Strongly regular graphs with equal parameters are cospectral, hence
  // share all closed-walk counts — consistent with 2-WL blindness.
  auto [shrikhande, rook] = Srg16Pair();
  EXPECT_EQ(*CycleHomProfile(shrikhande, 10), *CycleHomProfile(rook, 10));
}

TEST(CycleHomTest, ProfileInvariantUnderPermutation) {
  Rng rng(13);
  Graph g = RandomGnp(8, 0.5, &rng);
  Graph h = g.Permuted(rng.Permutation(8)).value();
  EXPECT_EQ(*CycleHomProfile(g, 7), *CycleHomProfile(h, 7));
}

TEST(CycleHomTest, OverflowSurfaces) {
  Graph k40 = CompleteGraph(40);
  // trace(A^40) on K40 is astronomically large.
  Result<int64_t> r = CountCycleHomomorphisms(40, k40);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kArithmeticOverflow);
  Result<std::vector<int64_t>> p = CycleHomProfile(k40, 40);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kArithmeticOverflow);
}

// A directed triangle blown up to 3 x 3 vertices: a closed walk's length
// must be a multiple of 3, and every A^k entry is 0 or 3^(k-1). The
// profile up to 40 overflows at trace(A^39) = 3^40, while hom(C_40, g) is
// 0 with every A^40 entry (3^39) inside int64 — a single count must not
// fail on a shorter cycle's trace.
TEST(CycleHomTest, SingleCountIgnoresShorterTraceOverflow) {
  Graph g = Graph::Unlabeled(9, /*directed=*/true);
  for (VertexId u = 0; u < 9; ++u) {
    for (VertexId v = 0; v < 9; ++v) {
      if (v / 3 != (u / 3 + 1) % 3) continue;
      ASSERT_TRUE(g.AddEdge(u, v).ok());
    }
  }
  EXPECT_EQ(*CountCycleHomomorphisms(40, g), 0);
  Result<std::vector<int64_t>> p = CycleHomProfile(g, 40);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kArithmeticOverflow);
}

// The profile is one chain of products; each entry must equal the
// standalone count for that length.
TEST(CycleHomTest, ProfileEntriesMatchSingleCounts) {
  Rng rng(17);
  for (bool directed : {false, true}) {
    for (int trial = 0; trial < 4; ++trial) {
      size_t n = 10 + 3 * trial;
      Graph g = Graph::Unlabeled(n, directed);
      for (size_t u = 0; u < n; ++u)
        for (size_t v = directed ? 0 : u + 1; v < n; ++v) {
          if (u == v || !rng.NextBernoulli(0.35)) continue;
          ASSERT_TRUE(g.AddEdge(static_cast<VertexId>(u),
                                static_cast<VertexId>(v))
                          .ok());
        }
      std::vector<int64_t> profile = *CycleHomProfile(g, 10);
      ASSERT_EQ(profile.size(), 8u);
      for (size_t k = 3; k <= 10; ++k) {
        EXPECT_EQ(profile[k - 3], *CountCycleHomomorphisms(k, g))
            << "directed=" << directed << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace gelc
