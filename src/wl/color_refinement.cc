#include "wl/color_refinement.h"

#include <algorithm>

#include "base/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gelc {

void AppendCrSignature(const Graph& g, const std::vector<uint64_t>& prev,
                       size_t v, std::vector<uint64_t>* words) {
  words->push_back(prev[v]);
  AppendSortedColors(g.Neighbors(static_cast<VertexId>(v)), prev, words);
}

namespace {

// With `equivalent` set, the run stops once graphs[0] and graphs[1] separate.
CrColoring RefineVertices(const std::vector<const Graph*>& graphs,
                          int max_rounds, bool* equivalent) {
  static obs::Counter* runs = obs::GetCounter("wl.cr.runs");
  static obs::Counter* rounds_total = obs::GetCounter("wl.cr.rounds");
  static obs::Histogram* rounds_hist = obs::GetHistogram(
      "wl.cr.rounds_to_stable", {1, 2, 4, 8, 16, 32, 64});
  static obs::Gauge* colors = obs::GetGauge("wl.cr.colors");
  static obs::Gauge* interner_size = obs::GetGauge("wl.cr.interner_size");
  runs->Increment();
  GELC_PROBE("wl.cr", {{"graphs", graphs.size()}});
  std::vector<size_t> sizes;
  for (const Graph* g : graphs) sizes.push_back(g->num_vertices());
  RefinementRounds driver;
  CrColoring out;
  // Round 0: original labels.
  out.stable = driver.Color(
      sizes, [&](size_t g, size_t v, std::vector<uint64_t>* words) {
        AppendFeatureWords(graphs[g]->features(), v, words);
      });
  out.history.push_back(out.stable);
  for (size_t round = 1; !driver.Separated(out.stable, equivalent) &&
                         driver.Continue(round, max_rounds);
       ++round) {
    obs::Probe round_probe("wl.round", {{"round", round}});
    out.stable = driver.Color(
        sizes, [&](size_t g, size_t v, std::vector<uint64_t>* words) {
          AppendCrSignature(*graphs[g], out.stable[g], v, words);
        });
    round_probe.SetArg("colors", static_cast<int64_t>(driver.distinct()));
    rounds_total->Increment();
    out.history.push_back(out.stable);
    out.rounds = round;
  }
  if (equivalent == nullptr || *equivalent)
    rounds_hist->Observe(static_cast<int64_t>(out.rounds));
  colors->Set(static_cast<double>(driver.distinct()));
  interner_size->Set(static_cast<double>(driver.interner().size()));
  return out;
}

}  // namespace

CrColoring RunColorRefinement(const std::vector<const Graph*>& graphs,
                              int max_rounds) {
  return RefineVertices(graphs, max_rounds, nullptr);
}

bool CrEquivalentGraphs(const Graph& a, const Graph& b) {
  bool equivalent = false;
  RefineVertices({&a, &b}, -1, &equivalent);
  return equivalent;
}

bool CrEquivalentVertices(const Graph& a, VertexId u, const Graph& b,
                          VertexId v) {
  CrColoring c = RunColorRefinement({&a, &b});
  return c.stable[0][u] == c.stable[1][v];
}

size_t CrPartitionSize(const Graph& g) {
  CrColoring c = RunColorRefinement({&g});
  std::vector<uint64_t> colors = c.stable[0];
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
  return colors.size();
}

}  // namespace gelc
