// P3: homomorphism counting cost versus pattern size and target size —
// the workload behind the Dell-Grohe-Rattan oracle of E2 — plus the tree
// catalogue and the cycle-hom profile.
#include <benchmark/benchmark.h>

#include "base/rng.h"
#include "graph/generators.h"
#include "hom/hom_count.h"
#include "hom/trees.h"

namespace gelc {
namespace {

void BM_HomByTreeSize(benchmark::State& state) {
  Rng rng(7);
  Graph g = RandomGnp(64, 0.1, &rng);
  Graph tree = RandomTree(state.range(0), &rng);
  for (auto _ : state) {
    Result<int64_t> c = CountTreeHomomorphisms(tree, g);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_HomByTreeSize)->Arg(3)->Arg(5)->Arg(7)->Arg(9);

void BM_HomByTargetSize(benchmark::State& state) {
  Rng rng(7);
  Graph tree = RandomTree(6, &rng);
  Graph g = RandomGnp(state.range(0), 0.1, &rng);
  for (auto _ : state) {
    Result<int64_t> c = CountTreeHomomorphisms(tree, g);
    benchmark::DoNotOptimize(c);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HomByTargetSize)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Complexity(benchmark::oNSquared);

void BM_TreeEnumeration(benchmark::State& state) {
  for (auto _ : state) {
    Result<std::vector<Graph>> trees = AllTreesUpTo(state.range(0));
    benchmark::DoNotOptimize(trees);
  }
}
BENCHMARK(BM_TreeEnumeration)
    ->Arg(5)->Arg(6)->Arg(7)->Arg(8)->Arg(9)->Arg(12)->Arg(14);

void BM_FullHomProfile(benchmark::State& state) {
  Rng rng(7);
  Graph g = RandomGnp(24, 0.2, &rng);
  std::vector<Graph> trees = AllTreesUpTo(state.range(0)).value();
  for (auto _ : state) {
    Result<std::vector<int64_t>> p = TreeHomProfile(g, trees);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_FullHomProfile)->Arg(5)->Arg(6)->Arg(7);

// hom(C_3..C_8) on G(32, 0.4): the cycle profile the separation oracles
// and E15 compute per graph.
void BM_CycleHomProfile(benchmark::State& state) {
  Rng rng(7);
  Graph g = RandomGnp(32, 0.4, &rng);
  for (auto _ : state) {
    Result<std::vector<int64_t>> p = CycleHomProfile(g, state.range(0));
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_CycleHomProfile)->Arg(8);

}  // namespace
}  // namespace gelc
