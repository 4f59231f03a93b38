// Color refinement (a.k.a. 1-WL / naive vertex classification), slide 50:
//
//   1. Initialization: all vertices have their original colors (labels).
//   2. Refinement: v and w get different colors if there is a color c such
//      that v and w have a different number of neighbors of color c.
//
// Colors are canonical ids from one interner per run, so several graphs can
// be refined jointly in lockstep and their colorings compared by id.
// ρ(color refinement) — pairs with identical color histograms — is the
// separation-power yardstick for MPNNs (slides 26, 51-52).
#ifndef GELC_WL_COLOR_REFINEMENT_H_
#define GELC_WL_COLOR_REFINEMENT_H_

#include <cstdint>
#include <vector>

#include "base/refine.h"
#include "graph/graph.h"

namespace gelc {

/// Result of refining a set of graphs jointly until stability: stable[g][v]
/// is the stable color of vertex v in graph g, and GraphSignature(g) its
/// color multiset (slide 50: "a graph gets a color based on the multiset
/// of colors of all its vertices").
struct CrColoring : GraphColoring {
  /// history[r][g][v] = color after round r (round 0 = initial labels).
  std::vector<std::vector<std::vector<uint64_t>>> history;
};

/// Runs color refinement jointly on `graphs` until the joint partition is
/// stable (or `max_rounds` if non-negative). Colors are comparable across
/// the supplied graphs only.
CrColoring RunColorRefinement(const std::vector<const Graph*>& graphs,
                              int max_rounds = -1);

/// Appends v's round signature: its color, then its out-neighbors' sorted.
void AppendCrSignature(const Graph& g, const std::vector<uint64_t>& prev,
                       size_t v, std::vector<uint64_t>* words);

/// True iff a and b have identical stable color histograms, i.e.
/// (a, b) ∈ ρ(color refinement) at the graph level.
bool CrEquivalentGraphs(const Graph& a, const Graph& b);

/// True iff vertex u of a and vertex v of b receive the same stable color
/// under joint refinement (vertex-level ρ).
bool CrEquivalentVertices(const Graph& a, VertexId u, const Graph& b,
                          VertexId v);

/// Number of distinct stable colors of a single graph (its CR partition
/// size); equals n iff CR discretizes the graph.
size_t CrPartitionSize(const Graph& g);

}  // namespace gelc

#endif  // GELC_WL_COLOR_REFINEMENT_H_
