#include "hom/trees.h"

#include <algorithm>
#include <functional>

#include "base/logging.h"

namespace gelc {

namespace {

// Canonical encoding of the tree rooted at `root`: children encodings are
// sorted and concatenated inside parentheses.
std::string RootedEncoding(const Graph& g, VertexId root) {
  std::function<std::string(VertexId, VertexId)> enc =
      [&](VertexId v, VertexId parent) {
        std::vector<std::string> kids;
        for (VertexId u : g.Neighbors(v)) {
          if (u == parent) continue;
          kids.push_back(enc(u, v));
        }
        std::sort(kids.begin(), kids.end());
        std::string out = "(";
        for (const std::string& k : kids) out += k;
        out += ")";
        return out;
      };
  return enc(root, root);
}

// The 1 or 2 center vertices of a tree (iterative leaf stripping).
std::vector<VertexId> TreeCenters(const Graph& g) {
  size_t n = g.num_vertices();
  if (n == 1) return {0};
  std::vector<size_t> degree(n);
  std::vector<VertexId> frontier;
  for (size_t v = 0; v < n; ++v) {
    degree[v] = g.OutDegree(static_cast<VertexId>(v));
    if (degree[v] <= 1) frontier.push_back(static_cast<VertexId>(v));
  }
  size_t remaining = n;
  std::vector<bool> removed(n, false);
  while (remaining > 2) {
    std::vector<VertexId> next;
    for (VertexId v : frontier) {
      removed[v] = true;
      --remaining;
      for (VertexId u : g.Neighbors(v)) {
        if (removed[u]) continue;
        if (--degree[u] == 1) next.push_back(u);
      }
    }
    frontier = std::move(next);
  }
  std::vector<VertexId> centers;
  for (size_t v = 0; v < n; ++v)
    if (!removed[v]) centers.push_back(static_cast<VertexId>(v));
  return centers;
}

constexpr size_t kMaxTreeVertices = 14;

// Trees are handled as level sequences: vertices in preorder, s[i] is the
// depth of vertex i, the root s[0] = 0.

// Beyer-Hedetniemi step to the next rooted tree: from position p on
// (s[p] >= 2), repeat the block that starts at p's parent q.
void NextRootedTree(std::vector<size_t>* levels, size_t p) {
  std::vector<size_t>& s = *levels;
  size_t q = p - 1;
  while (s[q] != s[p] - 1) --q;
  for (size_t i = p; i < s.size(); ++i) s[i] = s[i - (p - q)];
}

// The root's first subtree is s[1, m); returns m.
size_t FirstSubtreeEnd(const std::vector<size_t>& s) {
  size_t m = 2;
  while (m < s.size() && s[m] != 1) ++m;
  return m;
}

size_t FirstSubtreeHeight(const std::vector<size_t>& s, size_t m) {
  return *std::max_element(s.begin() + 1, s.begin() + m) - 1;
}

// Wright-Richmond-Odlyzko-McKay: s is the canonical level sequence of a
// free tree iff its first subtree is lower than the rest of the tree, or
// as high and smaller, or as big and not lexicographically greater.
bool IsCanonicalFreeTree(const std::vector<size_t>& s, size_t m) {
  size_t height = FirstSubtreeHeight(s, m);
  size_t rest_height =
      m == s.size() ? 0 : *std::max_element(s.begin() + m, s.end());
  if (height != rest_height) return height < rest_height;
  if (m - 1 != s.size() - m + 1) return m - 1 < s.size() - m + 1;
  // Subtree entry i is s[1 + i] - 1; rest entry i >= 1 is s[m - 1 + i].
  for (size_t i = 1; i + 1 < m; ++i) {
    if (s[1 + i] - 1 != s[m - 1 + i]) return s[1 + i] - 1 < s[m - 1 + i];
  }
  return true;
}

// Leaves s alone if it is canonical, else jumps to the next canonical one.
void NextFreeTree(std::vector<size_t>* levels) {
  std::vector<size_t>& s = *levels;
  size_t m = FirstSubtreeEnd(s);
  if (IsCanonicalFreeTree(s, m)) return;
  bool deep = s[m - 1] > 2;
  NextRootedTree(levels, m - 1);
  if (!deep) return;
  // End with a path one level taller than the new first subtree.
  size_t h = FirstSubtreeHeight(s, FirstSubtreeEnd(s)) + 1;
  for (size_t j = 0; j < h; ++j) s[s.size() - h + j] = j + 1;
}

}  // namespace

Result<std::string> TreeCanonicalForm(const Graph& g) {
  size_t n = g.num_vertices();
  if (n == 0) return Status::InvalidArgument("empty graph is not a tree");
  if (g.num_edges() != n - 1 || g.ConnectedComponents().size() != 1) {
    return Status::InvalidArgument("graph is not a tree");
  }
  std::vector<VertexId> centers = TreeCenters(g);
  std::string best;
  for (VertexId c : centers) {
    std::string e = RootedEncoding(g, c);
    if (best.empty() || e < best) best = e;
  }
  return best;
}

Result<std::vector<Graph>> AllTreesUpTo(size_t max_vertices) {
  if (max_vertices == 0 || max_vertices > kMaxTreeVertices) {
    return Status::InvalidArgument("AllTreesUpTo supports 1..14 vertices");
  }
  std::vector<Graph> out;
  out.push_back(Graph::Unlabeled(1));
  for (size_t n = 2; n <= max_vertices; ++n) {
    // Start at the path on n vertices rooted at its center.
    std::vector<size_t> s;
    for (size_t i = 0; i <= n / 2; ++i) s.push_back(i);
    for (size_t i = 1; i < (n + 1) / 2; ++i) s.push_back(i);
    for (size_t p = n - 1; p > 0;) {
      NextFreeTree(&s);
      // Vertex i hangs off the nearest earlier vertex one level up.
      Graph t = Graph::Unlabeled(n);
      std::vector<VertexId> last_at_level(n, 0);
      for (size_t i = 1; i < n; ++i) {
        last_at_level[s[i]] = static_cast<VertexId>(i);
        GELC_CHECK_OK(t.AddEdge(last_at_level[s[i] - 1],
                                last_at_level[s[i]]));
      }
      out.push_back(std::move(t));
      p = n - 1;
      while (s[p] == 1) --p;  // p = 0 after the star, the last tree
      if (p > 0) NextRootedTree(&s, p);
    }
  }
  return out;
}

}  // namespace gelc
