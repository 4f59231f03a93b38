#include "graph/isomorphism.h"

#include <algorithm>
#include <bit>
#include <map>

#include "base/logging.h"
#include "base/refine.h"

namespace gelc {

namespace {

// Joint color refinement of a ([0]) and b ([1]), so colors compare across
// them; nullopt once their histograms differ (non-isomorphic).
using JointColors = RefinementRounds::Coloring;

std::optional<JointColors> RefineJointly(const Graph& ga, const Graph& gb) {
  const std::vector<const Graph*> graphs = {&ga, &gb};
  const std::vector<size_t> sizes = {ga.num_vertices(), gb.num_vertices()};
  // Initial invariants: bitwise feature words plus the size of the
  // vertex's connected component as a double (cheap and decisive for
  // disjoint-union versus connected look-alikes such as CFI cycle pairs).
  std::vector<std::vector<double>> comp_size(2);
  for (size_t g = 0; g < 2; ++g) {
    comp_size[g].resize(sizes[g]);
    for (const auto& comp : graphs[g]->ConnectedComponents())
      for (VertexId v : comp)
        comp_size[g][v] = static_cast<double>(comp.size());
  }
  RefinementRounds driver;
  RefinementRounds::Coloring colors = driver.Color(
      sizes, [&](size_t g, size_t v, std::vector<uint64_t>* words) {
        AppendFeatureWords(graphs[g]->features(), v, words);
        words->push_back(std::bit_cast<uint64_t>(comp_size[g][v]));
      });
  bool same = false;
  for (size_t round = 1;
       !driver.Separated(colors, &same) && driver.Continue(round, -1);
       ++round) {
    colors = driver.Color(sizes, [&](size_t g, size_t v,
                                     std::vector<uint64_t>* words) {
      const auto vid = static_cast<VertexId>(v);
      words->push_back(colors[g][v]);
      AppendSortedColors(graphs[g]->Neighbors(vid), colors[g], words);
      words->push_back(~uint64_t{0});  // separator
      AppendSortedColors(graphs[g]->InNeighbors(vid), colors[g], words);
    });
  }
  if (!same) return std::nullopt;
  return colors;
}

// Backtracking matcher.
class Matcher {
 public:
  Matcher(const Graph& a, const Graph& b, const JointColors& colors,
          size_t max_steps)
      : a_(a), b_(b), colors_(colors), max_steps_(max_steps) {
    size_t n = a.num_vertices();
    map_.assign(n, kUnset);
    used_.assign(n, false);
    preimage_.assign(b.num_vertices(), kUnset);
    // Order vertices of a by ascending color-class size (most constrained
    // first), breaking ties by descending degree.
    std::map<uint64_t, size_t> class_size;
    for (uint64_t c : colors_[0]) ++class_size[c];
    order_.resize(n);
    for (size_t i = 0; i < n; ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(), [&](size_t x, size_t y) {
      size_t sx = class_size[colors_[0][x]];
      size_t sy = class_size[colors_[0][y]];
      if (sx != sy) return sx < sy;
      return a_.OutDegree(static_cast<VertexId>(x)) >
             a_.OutDegree(static_cast<VertexId>(y));
    });
    // Candidate lists per color.
    for (size_t v = 0; v < n; ++v)
      candidates_[colors_[1][v]].push_back(v);
  }

  // Returns found mapping, nullopt, or error on budget exhaustion.
  Result<std::optional<std::vector<size_t>>> Run() {
    bool found = Search(0);
    if (steps_ > max_steps_) {
      return Status::Internal("isomorphism search budget exhausted");
    }
    if (!found) return std::optional<std::vector<size_t>>{};
    return std::optional<std::vector<size_t>>{map_};
  }

 private:
  static constexpr size_t kUnset = static_cast<size_t>(-1);

  bool Feasible(size_t v, size_t w) {
    // Colors must match; adjacency to already-mapped vertices must match
    // in both directions.
    if (colors_[0][v] != colors_[1][w]) return false;
    for (VertexId u : a_.Neighbors(static_cast<VertexId>(v))) {
      if (map_[u] != kUnset &&
          !b_.HasEdge(static_cast<VertexId>(w),
                      static_cast<VertexId>(map_[u])))
        return false;
    }
    for (VertexId u : a_.InNeighbors(static_cast<VertexId>(v))) {
      if (map_[u] != kUnset &&
          !b_.HasEdge(static_cast<VertexId>(map_[u]),
                      static_cast<VertexId>(w)))
        return false;
    }
    // Mapped neighbors of w must all be images of neighbors of v: degree
    // equality plus the check above implies it for complete mappings; for
    // partial mappings check the reverse direction explicitly.
    for (VertexId u : b_.Neighbors(static_cast<VertexId>(w))) {
      size_t pre = preimage_[u];
      if (pre != kUnset && !a_.HasEdge(static_cast<VertexId>(v),
                                       static_cast<VertexId>(pre)))
        return false;
    }
    for (VertexId u : b_.InNeighbors(static_cast<VertexId>(w))) {
      size_t pre = preimage_[u];
      if (pre != kUnset && !a_.HasEdge(static_cast<VertexId>(pre),
                                       static_cast<VertexId>(v)))
        return false;
    }
    return true;
  }

  bool Search(size_t depth) {
    if (steps_ > max_steps_) return false;
    if (depth == order_.size()) return true;
    size_t v = order_[depth];
    for (size_t w : candidates_[colors_[0][v]]) {
      if (used_[w]) continue;
      ++steps_;
      if (!Feasible(v, w)) continue;
      map_[v] = w;
      used_[w] = true;
      preimage_[static_cast<VertexId>(w)] = v;
      if (Search(depth + 1)) return true;
      map_[v] = kUnset;
      used_[w] = false;
      preimage_[static_cast<VertexId>(w)] = kUnset;
      if (steps_ > max_steps_) return false;
    }
    return false;
  }

  const Graph& a_;
  const Graph& b_;
  const JointColors& colors_;
  size_t max_steps_;
  size_t steps_ = 0;
  std::vector<size_t> map_;
  std::vector<bool> used_;
  std::vector<size_t> order_;
  std::map<uint64_t, std::vector<size_t>> candidates_;
  // preimage_[w] = vertex of `a` currently mapped to w, or kUnset.
  std::vector<size_t> preimage_;
};

}  // namespace

Result<std::optional<std::vector<size_t>>> FindIsomorphism(
    const Graph& a, const Graph& b, size_t max_steps) {
  if (a.num_vertices() != b.num_vertices() ||
      a.num_arcs() != b.num_arcs() ||
      a.feature_dim() != b.feature_dim() ||
      a.DegreeSequence() != b.DegreeSequence()) {
    return std::optional<std::vector<size_t>>{};
  }
  std::optional<JointColors> colors = RefineJointly(a, b);
  if (!colors.has_value()) return std::optional<std::vector<size_t>>{};
  Matcher matcher(a, b, *colors, max_steps);
  return matcher.Run();
}

Result<bool> AreIsomorphic(const Graph& a, const Graph& b,
                           size_t max_steps) {
  GELC_ASSIGN_OR_RETURN(std::optional<std::vector<size_t>> iso,
                        FindIsomorphism(a, b, max_steps));
  return iso.has_value();
}

}  // namespace gelc
