// Seeded input generators and exact output comparisons shared by the
// workloads. Inputs depend only on the seed; the library only ever sees
// the generated graphs, texts, models and logs.
#ifndef GELC_PERFBENCH_INPUTS_H_
#define GELC_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "graph/graph.h"
#include "tensor/matrix.h"

namespace gelc {
namespace perfbench {

/// An undirected graph on n vertices with about n * avg_degree / 2
/// uniform random edges and one-hot labels over `num_labels` classes.
Graph RandomLabelledGraph(size_t n, double avg_degree, size_t num_labels,
                          Rng* rng);

/// Bit-for-bit equality (shape and every double's bytes).
bool BitEqual(const Matrix& a, const Matrix& b);

/// True when every entry is finite.
bool AllFinite(const Matrix& m);

/// Hash of a matrix's shape and bytes.
uint64_t MatrixDigest(const Matrix& m);

/// Flips the lowest mantissa bit of entry 0: the self-test's wrong answer.
void Corrupt(Matrix* m);

}  // namespace perfbench
}  // namespace gelc

#endif  // GELC_PERFBENCH_INPUTS_H_
