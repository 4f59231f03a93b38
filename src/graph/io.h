// Plain-text graph serialization.
//
// Format (line-oriented, '#' comments allowed):
//   graph <n> <feature_dim> <directed:0|1>
//   v <id> <f_0> ... <f_{d-1}>          (optional; default zero features)
//   e <u> <v>
#ifndef GELC_GRAPH_IO_H_
#define GELC_GRAPH_IO_H_

#include <string>

#include "base/status.h"
#include "graph/graph.h"

namespace gelc {

/// Parses a graph from the text format above. A header over 2^20
/// vertices or 2^24 feature entries (n * feature_dim) is InvalidArgument.
Result<Graph> ParseGraphText(const std::string& text);

/// Serializes a graph to the text format above; ParseGraphText round-trips.
std::string SerializeGraphText(const Graph& g);

}  // namespace gelc

#endif  // GELC_GRAPH_IO_H_
