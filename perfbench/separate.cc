// Workload `separate`: separation-power verdicts. One op runs one graph
// pair through the oracle ladder: CR, 2-FWL, hom(trees <= 8), cycle homs
// C3..C8, a GEL suite of closed MPNN-fragment queries, a GNN-101 probe
// and graph isomorphism. The pairs are permuted copies, independent
// G(n, 0.4) draws, CFI twists over cycles and the curated pairs of
// bench/pair_catalogue.h. wl, hom, separation and isomorphism do the
// work; core only runs the GEL suite (through the Evaluator). The tree
// catalogue is paid once, in setup.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "bench/pair_catalogue.h"
#include "core/parser.h"
#include "graph/generators.h"
#include "hom/hom_count.h"
#include "inputs.h"
#include "separation/oracles.h"
#include "workloads.h"

namespace gelc {
namespace perfbench {
namespace {

constexpr size_t kPairPool = 112;
constexpr size_t kRandomSizes[] = {16, 20, 24, 28, 32};
constexpr size_t kCfiBaseCycles[] = {3, 4, 5};
constexpr size_t kMaxTreeVertices = 8;
constexpr size_t kMaxCycle = 8;

// Closed queries of the MPNN fragment: CR-equivalent graphs agree on all
// of them (up to summation order, hence the tolerance).
const char* const kSuite[] = {
    "agg[sum]_{x0}(lab0(x0))",
    "agg[sum]_{x0}(agg[sum]_{x1}(lab0(x1) | E(x0,x1)))",
    "agg[sum]_{x0}(mul(agg[sum]_{x1}(lab0(x1) | E(x0,x1)),"
    "agg[sum]_{x1}(lab0(x1) | E(x0,x1))))",
    "agg[max]_{x0}(agg[sum]_{x1}(agg[sum]_{x0}(lab0(x0) | E(x1,x0)) | "
    "E(x0,x1)))",
    "agg[sum]_{x0}(tanh(scale[0.3](agg[sum]_{x1}(tanh(agg[mean]_{x0}("
    "lab0(x0) | E(x1,x0))) | E(x0,x1)))))",
};

// Oracle columns of one verdict row.
enum Col { kCr, kKwl2, kTree, kCycles, kSuiteCol, kProbe, kIso, kNumCols };
constexpr int kSkip = -1;
constexpr int kSep = 0;
constexpr int kEq = 1;

struct Pair {
  std::string name;
  Graph a;
  Graph b;
  // Expected verdict per column; kSkip = not pinned (implications only).
  int expect[kNumCols] = {kSkip, kSkip, kSkip, kSkip, kSkip, kSkip, kSkip};
  // The isomorphism oracle's default step budget cannot settle CFI(K4).
  bool run_iso = true;
};

// Verdicts printed in EXPERIMENTS.md (E1 CR/GNN-101 probe, E2 trees = CR,
// E3 first separating k-WL level, E15 cycles). Every curated pair is
// non-isomorphic. Cycle verdicts for Petersen and CFI(C5) are left to the
// implication checks: E15 uses cycles up to C10, this ladder stops at C8.
void PinCurated(Pair* p) {
  struct Row {
    const char* name;
    int cr, kwl2, cycles;
  };
  static const Row kRows[] = {
      {"C6 vs C3+C3", kEq, kSep, kSep},
      {"Shrikhande vs Rook", kEq, kEq, kEq},
      {"P4 vs Star3", kSep, kSep, kSep},
      {"C5 vs C6", kSep, kSep, kSep},
      {"Petersen vs C5xK2-ish", kEq, kSep, kSkip},
      {"CFI(C5) twist", kEq, kSep, kSkip},
      {"CFI(K4) twist", kEq, kEq, kEq},
  };
  for (const Row& r : kRows) {
    if (p->name != r.name) continue;
    p->expect[kCr] = r.cr;
    p->expect[kTree] = r.cr;
    p->expect[kProbe] = r.cr;
    p->expect[kKwl2] = r.kwl2;
    p->expect[kCycles] = r.cycles;
    p->expect[kIso] = kSep;
  }
  if (p->name == "CFI(K4) twist") p->run_iso = false;
}

class SeparateWorkload : public Workload {
 public:
  explicit SeparateWorkload(uint64_t seed) : seed_(seed) {
    Rng rng(MixSeed(seed, 0x5E9));
    std::vector<NamedPair> curated = CuratedPairs();
    size_t next_curated = 0;
    size_t next_cfi = 0;
    // Pool slot j's kind and size are fixed by j (6 permuted : 5
    // independent : 3 CFI : 2 curated in every 16), so every seed runs the
    // same mix; the seed only draws the random graphs. 112 slots hold
    // each curated pair twice and each CFI base seven times.
    for (size_t j = 0; j < kPairPool; ++j) {
      const size_t slot = j % 16;
      const size_t n = kRandomSizes[(j / 16 + slot) % std::size(kRandomSizes)];
      Pair p;
      if (slot < 6) {
        p.name = "permuted G(" + std::to_string(n) + ",0.4)";
        p.a = RandomGnp(n, 0.4, &rng);
        p.b = p.a.Permuted(rng.Permutation(n)).value();
        for (int& e : p.expect) e = kEq;
      } else if (slot < 11) {
        p.name = "independent G(" + std::to_string(n) + ",0.4)";
        p.a = RandomGnp(n, 0.4, &rng);
        p.b = RandomGnp(n, 0.4, &rng);
      } else if (slot < 14) {
        const size_t k = kCfiBaseCycles[next_cfi++ % std::size(kCfiBaseCycles)];
        auto cfi = CfiPair(CycleGraph(k)).value();
        p.name = "CFI(C" + std::to_string(k) + ") twist";
        // Relabel the twisted side so the pair is not trivially aligned.
        p.a = std::move(cfi.first);
        p.b = cfi.second.Permuted(rng.Permutation(cfi.second.num_vertices()))
                  .value();
        p.expect[kCr] = kEq;  // CFI twists are always CR-equivalent
        p.expect[kIso] = kSep;
      } else {
        const NamedPair& c = curated[next_curated++ % curated.size()];
        p.name = c.name;
        p.a = c.a;
        p.b = c.b;
        PinCurated(&p);
      }
      pairs_.push_back(std::move(p));
    }
  }

  uint64_t mix_period() const override { return kPairPool; }
  const char* name() const override { return "separate"; }

  void ResetInputs() override {
    cr_.reset();
    kwl2_.reset();
    trees_.reset();
    suite_.reset();
    probe_.reset();
    iso_.reset();
  }

  Status Setup(Tracer* tracer) override {
    cr_ = MakeCrOracle();
    kwl2_ = MakeKwlOracle(2);
    trees_ = MakeTreeHomOracle(kMaxTreeVertices);
    std::vector<ExprPtr> suite;
    for (const char* text : kSuite) {
      GELC_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr(text));
      suite.push_back(std::move(e));
    }
    suite_ = MakeGelSuiteOracle(std::move(suite), 1e-9, "GEL-suite");
    probe_ = MakeGnn101ProbeOracle(4, {8, 8}, 1e-6, MixSeed(seed_, 0x9B0));
    iso_ = MakeIsomorphismOracle();
    // The oracle builds its tree catalogue on first use: pay it here.
    ScopedSpan span(tracer, Layer::kTreeCatalogue);
    const Graph k1 = Graph::Unlabeled(1);
    return trees_->Equivalent(k1, k1).status();
  }

  void PrepareOp(uint64_t i) override { pair_ = &pairs_[i % pairs_.size()]; }

  Status RunOp(uint64_t, Tracer* tracer) override {
    const Graph& a = pair_->a;
    const Graph& b = pair_->b;
    const auto verdict = [](bool eq) { return eq ? kEq : kSep; };
    {
      ScopedSpan span(tracer, Layer::kCr);
      GELC_ASSIGN_OR_RETURN(bool eq, cr_->Equivalent(a, b));
      verdicts_[kCr] = verdict(eq);
    }
    {
      ScopedSpan span(tracer, Layer::kKwl);
      GELC_ASSIGN_OR_RETURN(bool eq, kwl2_->Equivalent(a, b));
      verdicts_[kKwl2] = verdict(eq);
    }
    {
      ScopedSpan span(tracer, Layer::kTreeProfile);
      GELC_ASSIGN_OR_RETURN(bool eq, trees_->Equivalent(a, b));
      verdicts_[kTree] = verdict(eq);
    }
    {
      ScopedSpan span(tracer, Layer::kCycleProfile);
      GELC_ASSIGN_OR_RETURN(std::vector<int64_t> pa, CycleHomProfile(a, kMaxCycle));
      GELC_ASSIGN_OR_RETURN(std::vector<int64_t> pb, CycleHomProfile(b, kMaxCycle));
      verdicts_[kCycles] = verdict(pa == pb);
      // The verdicts repeat across seeds; the counts tie the digest to
      // this seed's graphs.
      profile_digest_ = HashBytes(pa.data(), pa.size() * sizeof(int64_t),
                                  HashBytes(pb.data(), pb.size() * sizeof(int64_t)));
    }
    {
      ScopedSpan span(tracer, Layer::kGelSuite);
      GELC_ASSIGN_OR_RETURN(bool eq, suite_->Equivalent(a, b));
      verdicts_[kSuiteCol] = verdict(eq);
    }
    {
      ScopedSpan span(tracer, Layer::kProbe);
      GELC_ASSIGN_OR_RETURN(bool eq, probe_->Equivalent(a, b));
      verdicts_[kProbe] = verdict(eq);
    }
    verdicts_[kIso] = kSkip;
    if (pair_->run_iso) {
      ScopedSpan span(tracer, Layer::kIso);
      GELC_ASSIGN_OR_RETURN(bool eq, iso_->Equivalent(a, b));
      verdicts_[kIso] = verdict(eq);
    }
    return Status::OK();
  }

  // Every op is checked in full: the reference is the printed verdict
  // table and the paper's implications, which cost nothing to test.
  bool SampledCheck(uint64_t) const override { return true; }

  OpOutcome CheckOp(uint64_t i, bool, bool inject) override {
    int v[kNumCols];
    for (int c = 0; c < kNumCols; ++c) v[c] = verdicts_[c];
    if (inject) v[kCr] = v[kCr] == kEq ? kSep : kEq;
    OpOutcome out;
    out.digest = HashBytes(v, sizeof(v), profile_digest_);
    for (int c = 0; c < kNumCols; ++c) {
      if (pair_->expect[c] != kSkip && v[c] != kSkip && v[c] != pair_->expect[c])
        out.ok = false;
    }
    // The hierarchy: iso => 2-FWL => CR => trees, probe, MPNN suite;
    // 2-FWL => cycles. (A => B fails iff A holds and B does not.)
    const auto implies = [&](int a, int b) {
      return !(v[a] == kEq && v[b] == kSep);
    };
    out.ok = out.ok && implies(kIso, kKwl2) && implies(kKwl2, kCr) &&
             implies(kCr, kTree) && implies(kCr, kProbe) &&
             implies(kCr, kSuiteCol) && implies(kKwl2, kCycles);
    if (!out.ok && failures_reported_ < 5) {
      ++failures_reported_;
      std::fprintf(stderr,
                   "perfbench: separate op %llu pair '%s' verdicts "
                   "CR=%d 2WL=%d trees=%d cycles=%d suite=%d probe=%d iso=%d\n",
                   static_cast<unsigned long long>(i), pair_->name.c_str(),
                   v[kCr], v[kKwl2], v[kTree], v[kCycles], v[kSuiteCol],
                   v[kProbe], v[kIso]);
    }
    return out;
  }

 private:
  uint64_t seed_;
  std::vector<Pair> pairs_;
  const Pair* pair_ = nullptr;
  int verdicts_[kNumCols] = {};
  uint64_t profile_digest_ = 0;
  int failures_reported_ = 0;
  OraclePtr cr_, kwl2_, trees_, suite_, probe_, iso_;
};

}  // namespace

std::unique_ptr<Workload> MakeSeparateWorkload(uint64_t seed) {
  return std::make_unique<SeparateWorkload>(seed);
}

}  // namespace perfbench
}  // namespace gelc
