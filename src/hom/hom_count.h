// Exact homomorphism counting hom(T, G) for tree patterns T, by dynamic
// programming over T. This powers the Dell-Grohe-Rattan characterization
// (slide 27): G ≡_CR H iff hom(T, G) = hom(T, H) for all trees T — i.e.
// "GNNs 101 can only leverage tree-based information present in graphs".
#ifndef GELC_HOM_HOM_COUNT_H_
#define GELC_HOM_HOM_COUNT_H_

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "graph/graph.h"

namespace gelc {

/// Counts graph homomorphisms from the tree `pattern` into `g` (arbitrary
/// graph). Edges of the pattern must map to edges of g; vertex features are
/// ignored (the classical unlabeled setting).
///
/// Errors: InvalidArgument if `pattern` is not a tree;
/// ArithmeticOverflow if the count exceeds int64 range.
Result<int64_t> CountTreeHomomorphisms(const Graph& pattern, const Graph& g);

/// Per-vertex rooted counts: result[v] = number of homomorphisms of
/// `pattern` rooted at `root` that map the root to v. Summing over v gives
/// CountTreeHomomorphisms.
Result<std::vector<int64_t>> CountRootedTreeHomomorphisms(
    const Graph& pattern, VertexId root, const Graph& g);

/// The hom-count profile of g over a tree catalogue: profile[i] =
/// hom(trees[i], g). Equal profiles over all trees (up to any size)
/// characterize CR equivalence.
Result<std::vector<int64_t>> TreeHomProfile(const Graph& g,
                                            const std::vector<Graph>& trees);

/// hom(C_k, g) = trace(A^k), the number of closed walks of length k
/// (k >= 3). Cycles have treewidth 2: together with trees they populate
/// the treewidth-<=2 pattern class whose hom counts characterize 2-WL
/// equivalence (the slide-27 theorem's higher rung).
Result<int64_t> CountCycleHomomorphisms(size_t k, const Graph& g);

/// profile[i] = hom(C_{i+3}, g) for cycle lengths 3..max_length, read off
/// one chain of sparse products A^k = A^{k-1} A: O(max_length * n * arcs)
/// time, two n x n buffers.
Result<std::vector<int64_t>> CycleHomProfile(const Graph& g,
                                             size_t max_length);

}  // namespace gelc

#endif  // GELC_HOM_HOM_COUNT_H_
