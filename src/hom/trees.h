// Enumeration of all non-isomorphic (free, unlabeled) trees up to a given
// size, and AHU canonical encodings.
//
// Slide 27 (Dell-Grohe-Rattan): G and H are color-refinement equivalent iff
// hom(T, G) = hom(T, H) for all trees T. The tree catalogue produced here
// is the index set of that characterization.
// Trees are generated as canonical level sequences (Wright, Richmond,
// Odlyzko, McKay 1986): one per isomorphism class, nothing to deduplicate.
#ifndef GELC_HOM_TREES_H_
#define GELC_HOM_TREES_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "graph/graph.h"

namespace gelc {

/// AHU canonical encoding of a free tree (invariant under isomorphism).
/// Returns an error if g is not a tree (connected, m = n - 1).
Result<std::string> TreeCanonicalForm(const Graph& g);

/// All non-isomorphic trees with 1..max_vertices vertices, one per
/// isomorphism class, ordered by vertex count: AllTreesUpTo(m) is a prefix
/// of AllTreesUpTo(m + 1). max_vertices must be in [1, 14].
///
/// Sizes (OEIS A000055, cumulative): 1, 2, 3, 5, 8, 14, 25, 48, 95, 201,
/// 436, 987, 2288, 5447 trees for n = 1..14.
Result<std::vector<Graph>> AllTreesUpTo(size_t max_vertices);

}  // namespace gelc

#endif  // GELC_HOM_TREES_H_
