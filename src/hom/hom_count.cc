#include "hom/hom_count.h"

#include <algorithm>
#include <limits>

#include "base/logging.h"

namespace gelc {

namespace {

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// a + b with overflow detection.
bool CheckedAdd(int64_t a, int64_t b, int64_t* out) {
  if (a > kMax - b) return false;
  *out = a + b;
  return true;
}

// a * b with overflow detection (non-negative inputs).
bool CheckedMul(int64_t a, int64_t b, int64_t* out) {
  if (a != 0 && b > kMax / a) return false;
  *out = a * b;
  return true;
}

Status ValidateTree(const Graph& pattern) {
  size_t n = pattern.num_vertices();
  if (n == 0) return Status::InvalidArgument("empty pattern");
  if (pattern.directed()) {
    return Status::InvalidArgument("pattern must be undirected");
  }
  if (pattern.num_edges() != n - 1 ||
      pattern.ConnectedComponents().size() != 1) {
    return Status::InvalidArgument("pattern is not a tree");
  }
  return Status::OK();
}

// hom(C_k, g) = trace(A^k) for k = first..last, from one chain of sparse
// products power <- power * A: each nonzero power[i][l] is added to
// next[i][j] for every out-neighbor j of l. Traces below `first` are
// skipped, not checked, so a single count fails only on its own overflow.
Result<std::vector<int64_t>> ClosedWalkCounts(const Graph& g, size_t first,
                                              size_t last) {
  if (first < 3 || last < first) {
    return Status::InvalidArgument("cycle length must be >= 3");
  }
  size_t n = g.num_vertices();
  std::vector<int64_t> power(n * n, 0);
  std::vector<int64_t> next(n * n);
  for (size_t u = 0; u < n; ++u)
    for (VertexId v : g.Neighbors(static_cast<VertexId>(u)))
      power[u * n + v] = 1;
  std::vector<int64_t> traces;
  for (size_t k = 2; k <= last; ++k) {
    std::fill(next.begin(), next.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      const int64_t* row = &power[i * n];
      int64_t* out = &next[i * n];
      for (size_t l = 0; l < n; ++l) {
        if (row[l] == 0) continue;
        for (VertexId j : g.Neighbors(static_cast<VertexId>(l))) {
          if (!CheckedAdd(out[j], row[l], &out[j])) {
            return Status::ArithmeticOverflow("cycle hom count overflow");
          }
        }
      }
    }
    power.swap(next);
    if (k < first) continue;
    int64_t trace = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!CheckedAdd(trace, power[i * n + i], &trace)) {
        return Status::ArithmeticOverflow("cycle hom count overflow");
      }
    }
    traces.push_back(trace);
  }
  return traces;
}

}  // namespace

Result<std::vector<int64_t>> CountRootedTreeHomomorphisms(
    const Graph& pattern, VertexId root, const Graph& g) {
  GELC_RETURN_NOT_OK(ValidateTree(pattern));
  size_t pn = pattern.num_vertices();
  if (root >= pn) return Status::OutOfRange("root out of range");
  size_t n = g.num_vertices();

  // Post-order over the pattern rooted at `root`.
  std::vector<VertexId> order;
  std::vector<VertexId> parent(pn, root);
  {
    std::vector<VertexId> stack = {root};
    std::vector<bool> visited(pn, false);
    visited[root] = true;
    while (!stack.empty()) {
      VertexId v = stack.back();
      stack.pop_back();
      order.push_back(v);
      for (VertexId u : pattern.Neighbors(v)) {
        if (visited[u]) continue;
        visited[u] = true;
        parent[u] = v;
        stack.push_back(u);
      }
    }
  }

  // dp[u][v] = #homs of the subtree rooted at pattern vertex u mapping
  // u -> graph vertex v. Processed in reverse BFS order (leaves first).
  std::vector<std::vector<int64_t>> dp(pn, std::vector<int64_t>(n, 1));
  for (size_t i = order.size(); i-- > 0;) {
    VertexId u = order[i];
    for (VertexId c : pattern.Neighbors(u)) {
      if (c == root || parent[c] != u) continue;  // only true children of u
      // Fold the child's counts over g-neighbors into dp[u].
      for (size_t v = 0; v < n; ++v) {
        int64_t sum = 0;
        for (VertexId w : g.Neighbors(static_cast<VertexId>(v))) {
          if (!CheckedAdd(sum, dp[c][w], &sum)) {
            return Status::ArithmeticOverflow("hom count exceeds int64");
          }
        }
        if (!CheckedMul(dp[u][v], sum, &dp[u][v])) {
          return Status::ArithmeticOverflow("hom count exceeds int64");
        }
      }
    }
  }
  return dp[root];
}

Result<int64_t> CountTreeHomomorphisms(const Graph& pattern, const Graph& g) {
  GELC_ASSIGN_OR_RETURN(std::vector<int64_t> rooted,
                        CountRootedTreeHomomorphisms(pattern, 0, g));
  int64_t total = 0;
  for (int64_t x : rooted) {
    if (!CheckedAdd(total, x, &total)) {
      return Status::ArithmeticOverflow("hom count exceeds int64");
    }
  }
  return total;
}

Result<int64_t> CountCycleHomomorphisms(size_t k, const Graph& g) {
  GELC_ASSIGN_OR_RETURN(std::vector<int64_t> traces,
                        ClosedWalkCounts(g, k, k));
  return traces[0];
}

Result<std::vector<int64_t>> CycleHomProfile(const Graph& g,
                                             size_t max_length) {
  return ClosedWalkCounts(g, 3, max_length);
}

Result<std::vector<int64_t>> TreeHomProfile(const Graph& g,
                                            const std::vector<Graph>& trees) {
  std::vector<int64_t> profile;
  profile.reserve(trees.size());
  for (const Graph& t : trees) {
    GELC_ASSIGN_OR_RETURN(int64_t c, CountTreeHomomorphisms(t, g));
    profile.push_back(c);
  }
  return profile;
}

}  // namespace gelc
