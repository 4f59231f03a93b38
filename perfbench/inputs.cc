#include "inputs.h"

#include <cmath>
#include <cstring>

#include "harness.h"

namespace gelc {
namespace perfbench {

Graph RandomLabelledGraph(size_t n, double avg_degree, size_t num_labels,
                          Rng* rng) {
  Graph g(n, num_labels);
  for (size_t v = 0; v < n; ++v)
    g.SetOneHotFeature(static_cast<VertexId>(v), rng->NextBounded(num_labels));
  const auto target = static_cast<size_t>(static_cast<double>(n) * avg_degree / 2);
  size_t edges = 0;
  while (edges < target) {
    const auto u = static_cast<VertexId>(rng->NextBounded(n));
    const auto v = static_cast<VertexId>(rng->NextBounded(n));
    // AddEdge rejects self-loops and parallel edges; redraw on either.
    if (g.AddEdge(u, v).ok()) ++edges;
  }
  return g;
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

bool AllFinite(const Matrix& m) {
  for (double x : m.data()) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

uint64_t MatrixDigest(const Matrix& m) {
  const uint64_t shape[2] = {m.rows(), m.cols()};
  uint64_t h = HashBytes(shape, sizeof(shape));
  // Word at a time: digests run on every op, outside the timed region,
  // but they still lengthen the run.
  for (double x : m.data()) {
    uint64_t w = 0;
    std::memcpy(&w, &x, sizeof(w));
    h = (h ^ w) * 0x100000001b3ULL;
  }
  return h;
}

void Corrupt(Matrix* m) {
  if (m->empty()) {
    *m = Matrix(1, 1, 1.0);
    return;
  }
  uint64_t bits = 0;
  std::memcpy(&bits, &m->mutable_data()[0], sizeof(bits));
  bits ^= 1;
  std::memcpy(&m->mutable_data()[0], &bits, sizeof(bits));
}

}  // namespace perfbench
}  // namespace gelc
