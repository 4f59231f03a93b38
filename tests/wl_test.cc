// Tests for color refinement and folklore k-WL (slides 50, 65).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "base/hash.h"
#include "base/rng.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"
#include "graph/relational.h"
#include "graph/update_log.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "wl/color_refinement.h"
#include "wl/incremental.h"
#include "wl/kwl.h"

namespace gelc {
namespace {

TEST(CrTest, RegularGraphCollapsesToOneColor) {
  Graph c = CycleGraph(7);
  EXPECT_EQ(CrPartitionSize(c), 1u);
}

TEST(CrTest, PathDiscriminatesByDistanceToEnds) {
  // P5 vertices: 0-1-2-3-4. Stable classes: {0,4}, {1,3}, {2}.
  Graph p = PathGraph(5);
  CrColoring c = RunColorRefinement({&p});
  EXPECT_EQ(c.stable[0][0], c.stable[0][4]);
  EXPECT_EQ(c.stable[0][1], c.stable[0][3]);
  EXPECT_NE(c.stable[0][0], c.stable[0][1]);
  EXPECT_NE(c.stable[0][1], c.stable[0][2]);
  EXPECT_EQ(CrPartitionSize(p), 3u);
}

TEST(CrTest, InitialLabelsRespected) {
  Graph a = CycleGraph(4);
  Graph b = CycleGraph(4);
  b.mutable_features().At(0, 0) = 5.0;
  EXPECT_FALSE(CrEquivalentGraphs(a, b));
}

TEST(CrTest, C6VsTwoTrianglesEquivalent) {
  auto [c6, two_c3] = Cr_HardPair();
  EXPECT_TRUE(CrEquivalentGraphs(c6, two_c3));
  // ... although they are not isomorphic.
  EXPECT_FALSE(*AreIsomorphic(c6, two_c3));
}

TEST(CrTest, SrgPairEquivalent) {
  auto [shrikhande, rook] = Srg16Pair();
  EXPECT_TRUE(CrEquivalentGraphs(shrikhande, rook));
}

TEST(CrTest, DistinguishesDifferentDegreeSequences) {
  EXPECT_FALSE(CrEquivalentGraphs(PathGraph(4), StarGraph(3)));
  EXPECT_FALSE(CrEquivalentGraphs(CycleGraph(6), PathGraph(6)));
}

TEST(CrTest, VertexLevelEquivalence) {
  Graph p = PathGraph(5);
  EXPECT_TRUE(CrEquivalentVertices(p, 0, p, 4));
  EXPECT_FALSE(CrEquivalentVertices(p, 0, p, 2));
  // Endpoints of same-length paths in different graphs match.
  Graph q = PathGraph(5);
  EXPECT_TRUE(CrEquivalentVertices(p, 0, q, 4));
}

TEST(CrTest, InvariantUnderPermutation) {
  Rng rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    Graph g = RandomGnp(12, 0.3, &rng);
    Graph h = g.Permuted(rng.Permutation(12)).value();
    EXPECT_TRUE(CrEquivalentGraphs(g, h));
  }
}

TEST(CrTest, HistoryRefines) {
  Graph p = PathGraph(6);
  CrColoring c = RunColorRefinement({&p});
  // The number of distinct colors is non-decreasing over rounds.
  size_t prev = 0;
  for (const auto& round : c.history) {
    std::set<uint64_t> distinct(round[0].begin(), round[0].end());
    EXPECT_GE(distinct.size(), prev);
    prev = distinct.size();
  }
  EXPECT_GE(c.rounds, 1u);
}

TEST(CrTest, MaxRoundsBoundsWork) {
  Graph p = PathGraph(9);
  CrColoring one = RunColorRefinement({&p}, /*max_rounds=*/1);
  EXPECT_EQ(one.rounds, 1u);
  // After one round colors encode degree only: 2 classes.
  std::set<uint64_t> distinct(one.stable[0].begin(), one.stable[0].end());
  EXPECT_EQ(distinct.size(), 2u);
}

TEST(KwlTest, InvalidKRejected) {
  Graph g = PathGraph(3);
  EXPECT_FALSE(RunKwl({&g}, 0).ok());
  EXPECT_FALSE(RunKwl({&g}, 5).ok());
}

TEST(KwlTest, KOneMatchesColorRefinement) {
  auto [c6, two_c3] = Cr_HardPair();
  Result<bool> r = KwlEquivalentGraphs(c6, two_c3, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  Result<bool> r2 = KwlEquivalentGraphs(PathGraph(4), StarGraph(3), 1);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(*r2);
}

TEST(KwlTest, TwoWlSeparatesC6FromTwoTriangles) {
  auto [c6, two_c3] = Cr_HardPair();
  Result<bool> r = KwlEquivalentGraphs(c6, two_c3, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(KwlTest, TwoWlBlindOnSrgPair) {
  auto [shrikhande, rook] = Srg16Pair();
  Result<bool> r = KwlEquivalentGraphs(shrikhande, rook, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r) << "folklore 2-WL must not separate srg(16,6,2,2) graphs";
}

TEST(KwlTest, ThreeWlSeparatesSrgPair) {
  auto [shrikhande, rook] = Srg16Pair();
  Result<bool> r = KwlEquivalentGraphs(shrikhande, rook, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r) << "folklore 3-WL must separate Shrikhande from Rook";
}

TEST(KwlTest, MinimalSeparatingKMatchesHierarchy) {
  auto [c6, two_c3] = Cr_HardPair();
  Result<size_t> k1 = MinimalSeparatingK(c6, two_c3, 3);
  ASSERT_TRUE(k1.ok());
  EXPECT_EQ(*k1, 2u);

  auto [shrikhande, rook] = Srg16Pair();
  Result<size_t> k2 = MinimalSeparatingK(shrikhande, rook, 3);
  ASSERT_TRUE(k2.ok());
  EXPECT_EQ(*k2, 3u);

  // Isomorphic graphs are never separated.
  Rng rng(5);
  Graph g = RandomGnp(8, 0.4, &rng);
  Graph h = g.Permuted(rng.Permutation(8)).value();
  Result<size_t> k3 = MinimalSeparatingK(g, h, 3);
  ASSERT_TRUE(k3.ok());
  EXPECT_EQ(*k3, 0u);
}

TEST(KwlTest, KwlInvariantUnderPermutation) {
  Rng rng(7);
  Graph g = RandomGnp(7, 0.4, &rng);
  Graph h = g.Permuted(rng.Permutation(7)).value();
  for (size_t k : {2u, 3u}) {
    Result<bool> r = KwlEquivalentGraphs(g, h, k);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(*r) << "k=" << k;
  }
}

TEST(KwlTest, RefinementMonotoneInK) {
  // Whenever (k)-WL separates a pair, (k+1)-WL must too.
  Rng rng(9);
  for (int trial = 0; trial < 6; ++trial) {
    Graph a = RandomGnp(7, 0.35, &rng);
    Graph b = RandomGnp(7, 0.35, &rng);
    bool sep1 = !*KwlEquivalentGraphs(a, b, 1);
    bool sep2 = !*KwlEquivalentGraphs(a, b, 2);
    bool sep3 = !*KwlEquivalentGraphs(a, b, 3);
    if (sep1) {
      EXPECT_TRUE(sep2);
    }
    if (sep2) {
      EXPECT_TRUE(sep3);
    }
  }
}

TEST(KwlTest, TupleColorLookup) {
  Graph p = PathGraph(4);
  Result<KwlColoring> c = RunKwl({&p}, 2);
  ASSERT_TRUE(c.ok());
  // Tuple (0, 1) is an edge; (0, 2) is not: different atomic types survive
  // refinement.
  uint64_t edge_color = c->TupleColor(0, {0, 1}, 4);
  uint64_t non_edge_color = c->TupleColor(0, {0, 2}, 4);
  EXPECT_NE(edge_color, non_edge_color);
  // Symmetric positions get symmetric colors: (0,1) vs (3,2).
  EXPECT_EQ(c->TupleColor(0, {0, 1}, 4), c->TupleColor(0, {3, 2}, 4));
}

TEST(KwlTest, TableSizeGuard) {
  Graph big = Graph::Unlabeled(200);
  EXPECT_EQ(RunKwl({&big}, 3).status().code(), StatusCode::kOutOfRange);
  // 65536^4 wraps to 0 in 64 bits; the guard must not let it through.
  Graph huge = Graph::Unlabeled(65536);
  EXPECT_EQ(RunKwl({&huge}, 4).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(KwlEquivalentGraphs(huge, huge, 4).status().code(),
            StatusCode::kOutOfRange);
}

TEST(KwlTest, CfiCyclePairSeparatedAtTwo) {
  // CFI over a cycle: 1-WL blind (all degrees 2 within each part type),
  // 2-WL separates (connectivity-like information).
  Result<std::pair<Graph, Graph>> pair = CfiPair(CycleGraph(5));
  ASSERT_TRUE(pair.ok());
  Result<bool> r1 = KwlEquivalentGraphs(pair->first, pair->second, 1);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(*r1);
  Result<bool> r2 = KwlEquivalentGraphs(pair->first, pair->second, 2);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(*r2);
}


// ---------------------------------------------------------------------------
// Colour-id pins. Every refiner promises more than its partition: the
// signature equality relation and the first-seen intern order fix the ids
// themselves (the WL kernel keys its features on (round, id), and tables
// compare ids across graphs). These digests were recorded from the
// string-signature implementation and must never move.
// ---------------------------------------------------------------------------

class IdDigest {
 public:
  void Add(uint64_t word) { h_ = HashCombine(h_, word); }
  void Add(const std::vector<uint64_t>& words) {
    Add(words.size());
    for (uint64_t w : words) Add(w);
  }
  void Add(const std::vector<std::vector<uint64_t>>& rows) {
    Add(rows.size());
    for (const auto& r : rows) Add(r);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x2545F4914F6CDD1DULL;
};

Graph RandomDigraph(size_t n, double p, Rng* rng) {
  Graph g = Graph::Unlabeled(n, /*directed=*/true);
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = 0; v < n; ++v)
      if (u != v && rng->NextBernoulli(p))
        GELC_CHECK_OK(g.AddEdge(static_cast<VertexId>(u),
                                static_cast<VertexId>(v)));
  }
  return g;
}

// Seeded G(n, p) (one of them labelled), CFI(C3..C5) and Shrikhande/rook.
std::vector<std::pair<Graph, Graph>> PinnedPairs() {
  Rng rng(20261020);
  std::vector<std::pair<Graph, Graph>> pairs;
  pairs.emplace_back(RandomGnp(11, 0.3, &rng), RandomGnp(11, 0.3, &rng));
  Graph labelled = RandomGnp(9, 0.4, &rng);
  for (size_t v = 0; v < 9; ++v)
    labelled.mutable_features().At(v, 0) = static_cast<double>(v % 3);
  Graph permuted = *labelled.Permuted(rng.Permutation(9));
  pairs.emplace_back(std::move(labelled), std::move(permuted));
  for (size_t m = 3; m <= 5; ++m) pairs.push_back(*CfiPair(CycleGraph(m)));
  pairs.push_back(Srg16Pair());
  return pairs;
}

double GaugeValue(const char* name) { return obs::GetGauge(name)->Read(); }

TEST(ColourIdPinTest, CrKwlAndObliviousIdsAreUnchanged) {
  const bool metrics_were_on = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  IdDigest cr, kwl2, kwl3, obl2, obl3;
  for (const auto& [a, b] : PinnedPairs()) {
    CrColoring c = RunColorRefinement({&a, &b});
    cr.Add(c.stable);
    for (const auto& round : c.history) cr.Add(round);
    cr.Add(c.rounds);
    cr.Add(static_cast<uint64_t>(GaugeValue("wl.cr.interner_size")));
    for (size_t k : {2, 3}) {
      IdDigest& fd = k == 2 ? kwl2 : kwl3;
      Result<KwlColoring> f = RunKwl({&a, &b}, k);
      ASSERT_TRUE(f.ok());
      fd.Add(f->stable);
      fd.Add(f->rounds);
      fd.Add(static_cast<uint64_t>(GaugeValue("wl.kwl.interner_size")));
      IdDigest& od = k == 2 ? obl2 : obl3;
      Result<KwlColoring> o = RunObliviousKwl({&a, &b}, k);
      ASSERT_TRUE(o.ok());
      od.Add(o->stable);
      od.Add(o->rounds);
    }
  }
  obs::SetMetricsEnabled(metrics_were_on);
  EXPECT_EQ(cr.value(), 14705073704485851180u);
  EXPECT_EQ(kwl2.value(), 11906482964390839385u);
  EXPECT_EQ(kwl3.value(), 1868129399791685029u);
  EXPECT_EQ(obl2.value(), 12483567463693932696u);
  EXPECT_EQ(obl3.value(), 17901826746531776095u);
}

TEST(ColourIdPinTest, IncrementalHistoryIsUnchanged) {
  IdDigest d;
  for (uint64_t seed : {3u, 4u, 5u}) {
    Rng rng(seed);
    Graph g = RandomGnp(40, 0.08, &rng);
    IncrementalColorRefiner refiner(
        &g, IncrementalColorRefiner::Options{seed == 5 ? 0.05 : 1.0});
    d.Add(refiner.colors());
    d.Add(refiner.rounds());
    UpdateLog log = GenerateUpdateLog(g, 60, 0.4, &rng);
    ReplayOptions options;
    options.batch_size = 1 + seed;
    GELC_CHECK_OK(ReplayUpdateLog(log, &g, options,
                                  [&](const ReplayBatch& batch) {
                                    refiner.Update(batch.touched);
                                    d.Add(refiner.colors());
                                    d.Add(refiner.rounds());
                                    d.Add(refiner.last_recolored());
                                    d.Add(refiner.last_was_fallback());
                                    return Status::OK();
                                  }));
  }
  EXPECT_EQ(d.value(), 14304417546406664437u);
}

TEST(ColourIdPinTest, RelationalCrIdsAreUnchanged) {
  IdDigest d;
  Rng rng(77);
  for (size_t trial = 0; trial < 3; ++trial) {
    RelationalGraph a(10, 3, 2);
    RelationalGraph b(10, 3, 2);
    for (RelationalGraph* g : {&a, &b}) {
      for (VertexId v = 0; v < 10; ++v) g->SetOneHotFeature(v, v % 4 == 0);
      for (VertexId u = 0; u < 10; ++u)
        for (VertexId v = u + 1; v < 10; ++v)
          if (rng.NextBernoulli(0.25))
            GELC_CHECK_OK(g->AddEdge(rng.NextBounded(3), u, v));
    }
    RelationalCrColoring c = RunRelationalColorRefinement({&a, &b});
    d.Add(c.stable);
    d.Add(c.rounds);
  }
  EXPECT_EQ(d.value(), 363697028442682310u);
}

TEST(ColourIdPinTest, IsomorphismVerdictsAndMappingsAreUnchanged) {
  IdDigest d;
  std::vector<std::pair<Graph, Graph>> pairs = PinnedPairs();
  Rng rng(909);
  for (size_t i = 0; i < 3; ++i) {
    Graph g = i == 2 ? RandomDigraph(10, 0.3, &rng) : RandomGnp(12, 0.35, &rng);
    Graph h = *g.Permuted(rng.Permutation(g.num_vertices()));
    pairs.emplace_back(std::move(g), std::move(h));
  }
  for (const auto& [a, b] : pairs) {
    auto iso = FindIsomorphism(a, b);
    ASSERT_TRUE(iso.ok());
    d.Add(iso->has_value());
    if (iso->has_value()) {
      std::vector<uint64_t> map((*iso)->begin(), (*iso)->end());
      d.Add(map);
    }
  }
  EXPECT_EQ(d.value(), 15145770704000435872u);
}

}  // namespace
}  // namespace gelc
