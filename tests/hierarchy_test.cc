// A seeded differential harness for the paper's refinement hierarchy.
//
// Seeded pairs — G(n, p) (independent and permuted), CR-equivalent
// regular pairs, CFI twists over C3..C5 and Shrikhande vs the 4x4 rook's
// graph — must satisfy, for every draw:
//
//   iso-equal => 2-FWL-equal => CR-equal                  (slide 25)
//   oblivious (k+1)-WL == folklore k-WL, k = 1, 2
//   CR-equal => equal tree-hom profiles, trees <= 8        (Dvořák;
//                                                  Dell-Grohe-Rattan)
//   2-FWL-equal => equal cycle-hom profiles
//   any mapping the isomorphism oracle returns is an isomorphism
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"
#include "hom/hom_count.h"
#include "hom/trees.h"
#include "wl/color_refinement.h"
#include "wl/kwl.h"

namespace gelc {
namespace {

struct Pair {
  std::string name;
  Graph a;
  Graph b;
};

Graph Relabelled(const Graph& g, Rng* rng) {
  return g.Permuted(rng->Permutation(g.num_vertices())).value();
}

// One draw of every pair kind, sized by the seed.
std::vector<Pair> DrawPairs(uint64_t seed) {
  Rng rng(seed * 7919 + 17);
  std::vector<Pair> pairs;
  const size_t n = 8 + seed % 9;
  Graph g = RandomGnp(n, 0.35, &rng);
  Graph permuted = Relabelled(g, &rng);
  pairs.push_back({"permuted G(n,p)", std::move(g), std::move(permuted)});
  Graph x = RandomGnp(n, 0.35, &rng);
  Graph y = RandomGnp(n, 0.35, &rng);
  pairs.push_back({"independent G(n,p)", std::move(x), std::move(y)});
  const size_t d = 3;
  const size_t m = 2 * (4 + seed % 5);  // even, so n * d is even
  Graph r1 = RandomRegular(m, d, &rng).value();
  Graph r2 = RandomRegular(m, d, &rng).value();
  pairs.push_back({"regular pair", std::move(r1), std::move(r2)});
  auto cfi = CfiPair(CycleGraph(3 + seed % 3)).value();
  pairs.push_back(
      {"CFI twist", std::move(cfi.first), Relabelled(cfi.second, &rng)});
  if (seed % 4 == 0) {
    auto [shrikhande, rook] = Srg16Pair();
    pairs.push_back({"Shrikhande/rook", std::move(shrikhande),
                     Relabelled(rook, &rng)});
  }
  return pairs;
}

bool IsIsomorphism(const Graph& a, const Graph& b,
                   const std::vector<size_t>& map) {
  const size_t n = a.num_vertices();
  if (map.size() != n || b.num_vertices() != n) return false;
  std::vector<bool> hit(n, false);
  for (size_t v = 0; v < n; ++v) {
    if (map[v] >= n || hit[map[v]]) return false;
    hit[map[v]] = true;
    for (size_t j = 0; j < a.feature_dim(); ++j)
      if (a.features().At(v, j) != b.features().At(map[v], j)) return false;
  }
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = 0; v < n; ++v) {
      const bool in_a =
          a.HasEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
      const bool in_b = b.HasEdge(static_cast<VertexId>(map[u]),
                                  static_cast<VertexId>(map[v]));
      if (u != v && in_a != in_b) return false;
    }
  }
  return true;
}

TEST(HierarchyTest, SeededPairsRespectThePaperHierarchy) {
  const std::vector<Graph> trees = AllTreesUpTo(8).value();
  size_t iso_found = 0;
  size_t cr_blind_kwl_sees = 0;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    for (const Pair& p : DrawPairs(seed)) {
      SCOPED_TRACE(p.name + " seed " + std::to_string(seed));
      const Graph& a = p.a;
      const Graph& b = p.b;
      const bool cr = CrEquivalentGraphs(a, b);
      const bool fwl2 = KwlEquivalentGraphs(a, b, 2).value();
      // Oblivious (k+1)-WL and folklore k-WL have the same power.
      EXPECT_EQ(ObliviousKwlEquivalentGraphs(a, b, 2).value(), cr);
      EXPECT_EQ(ObliviousKwlEquivalentGraphs(a, b, 3).value(), fwl2);
      if (fwl2) {
        EXPECT_TRUE(cr);
      }
      if (cr && !fwl2) ++cr_blind_kwl_sees;
      if (cr) {
        EXPECT_EQ(TreeHomProfile(a, trees).value(),
                  TreeHomProfile(b, trees).value());
      }
      if (fwl2) {
        EXPECT_EQ(CycleHomProfile(a, 8).value(),
                  CycleHomProfile(b, 8).value());
      }
      auto iso = FindIsomorphism(a, b, /*max_steps=*/200'000);
      if (!iso.ok()) continue;  // budget exhausted: no verdict to check
      if (iso->has_value()) {
        ++iso_found;
        EXPECT_TRUE(fwl2);
        EXPECT_TRUE(IsIsomorphism(a, b, **iso));
      }
    }
  }
  // The draws must exercise both ends of the hierarchy.
  EXPECT_GE(iso_found, 12u);
  EXPECT_GE(cr_blind_kwl_sees, 12u);
}

}  // namespace
}  // namespace gelc
