#include "wl/kwl.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>

#include "base/logging.h"
#include "base/refine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "wl/color_refinement.h"

namespace gelc {

namespace {

// n^k tuples in mixed radix, most significant position first: putting w
// at position j moves t by (w - v_j) * stride[j].
struct TupleSpace {
  size_t n = 0;
  size_t k = 0;
  std::array<size_t, 4> stride{};

  TupleSpace(size_t n_, size_t k_) : n(n_), k(k_) {
    stride[k - 1] = 1;
    for (size_t j = k - 1; j-- > 0;) stride[j] = stride[j + 1] * n;
  }
  size_t size() const { return stride[0] * n; }
  std::array<size_t, 4> Decode(size_t t) const {
    std::array<size_t, 4> v{};
    for (size_t j = k; j-- > 0; t /= n) v[j] = t % n;
    return v;
  }
};

// Atomic type of an ordered k-tuple: per-position feature colors plus the
// full equality and adjacency patterns.
void AppendAtomicType(const Graph& g, const TupleSpace& s, size_t t,
                      const std::vector<uint64_t>& feature_colors,
                      std::vector<uint64_t>* words) {
  const std::array<size_t, 4> v = s.Decode(t);
  for (size_t i = 0; i < s.k; ++i) words->push_back(feature_colors[v[i]]);
  for (size_t i = 0; i < s.k; ++i) {
    for (size_t j = 0; j < s.k; ++j) {
      uint64_t bits = 0;
      if (v[i] == v[j]) bits |= 1;
      if (i != j && g.HasEdge(static_cast<VertexId>(v[i]),
                              static_cast<VertexId>(v[j])))
        bits |= 2;
      words->push_back(bits);
    }
  }
}

// One folklore round over one graph: t's signature is [old color | the n
// vectors (c(t[1->w]), ..., c(t[k->w])) in lexicographic order], sorted as
// `Packed` words of K `bits`-wide fields and written out field by field.
// c(t[1->w]) = prev[w * stride[0] + f] for t's fiber f: visiting w in the
// fiber's color order (sorted once per round) leaves only ties to sort.
class FolkloreRound {
 public:
  FolkloreRound(const TupleSpace& s, const std::vector<uint64_t>& prev,
                unsigned bits)
      : s_(s), prev_(prev), bits_(bits), order_(s.size()) {
    const size_t fibers = s.stride[0];
    ParallelFor(0, fibers, 64, [&](size_t fb, size_t fe) {
      std::vector<uint64_t> keys(s.n);
      for (size_t f = fb; f < fe; ++f) {
        for (size_t w = 0; w < s.n; ++w)
          keys[w] = prev[w * fibers + f] << 32 | w;
        std::sort(keys.begin(), keys.end());
        for (size_t r = 0; r < s.n; ++r)
          order_[f * s.n + r] = static_cast<uint32_t>(keys[r]);
      }
    });
  }

  template <size_t K>
  void Append(size_t t, std::vector<uint64_t>* words) const {
    const size_t base = words->size();
    words->resize(base + 1 + s_.n * K);
    uint64_t* sig = words->data() + base;
    if (K * bits_ <= 64) {
      // The packed words borrow the tail of the signature's own slot.
      Write<K>(t, sig + 1 + s_.n * (K - 1), sig);
    } else {
      // Ids too wide for one word: two words per vector. Only k >= 3 gets
      // here, where the 2e6 tuple cap keeps n <= 125.
      std::array<unsigned __int128, 128> packed;
      GELC_DCHECK_LE(s_.n, packed.size());
      Write<K>(t, packed.data(), sig);
    }
  }

 private:
  template <size_t K, typename Packed>
  void Write(size_t t, Packed* packed, uint64_t* sig) const {
    // Locals: the uint64_t stores below would force member reloads.
    const size_t n = s_.n;
    const unsigned bits = bits_;
    const uint64_t* prev = prev_.data();
    const std::array<size_t, 4> v = s_.Decode(t);
    const uint32_t* order = order_.data() + (t - v[0] * s_.stride[0]) * n;
    std::array<size_t, K> base;
    std::array<size_t, K> stride;
    for (size_t j = 0; j < K; ++j) {
      stride[j] = s_.stride[j];
      base[j] = t - v[j] * stride[j];  // t with w = 0 at position j
    }
    for (size_t r = 0; r < n; ++r) {
      const size_t w = order[r];
      Packed p = 0;
      for (size_t j = 0; j < K; ++j)
        p = (p << bits) | prev[base[j] + w * stride[j]];
      packed[r] = p;
    }
    const unsigned first = (K - 1) * bits;
    for (size_t lo = 0, hi; lo < n; lo = hi) {
      for (hi = lo + 1; hi < n && packed[hi] >> first == packed[lo] >> first;)
        ++hi;
      if (hi - lo > 1) std::sort(packed + lo, packed + hi);
    }
    const Packed mask = (Packed{1} << bits) - 1;
    sig[0] = prev[t];
    // Ascending r never overwrites a packed word it has yet to read.
    for (size_t r = 0; r < n; ++r) {
      const Packed p = packed[r];
      for (size_t j = 0; j < K; ++j)
        sig[1 + r * K + j] =
            static_cast<uint64_t>(p >> ((K - 1 - j) * bits) & mask);
    }
  }

  const TupleSpace& s_;
  const std::vector<uint64_t>& prev_;
  unsigned bits_;
  // order_[f * n + r] = the w with the r-th smallest c(t[1->w]) in fiber f.
  std::vector<uint32_t> order_;
};

// Oblivious signature of tuple t: [old color | per position j, the sorted
// multiset over w of the single color c(t[j->w])].
void AppendOblivious(const TupleSpace& s, const std::vector<uint64_t>& prev,
                     size_t t, std::vector<uint64_t>* words) {
  const std::array<size_t, 4> v = s.Decode(t);
  words->push_back(prev[t]);
  for (size_t j = 0; j < s.k; ++j) {
    const size_t head = words->size();
    for (size_t w = 0; w < s.n; ++w)
      words->push_back(prev[t + (w - v[j]) * s.stride[j]]);
    std::sort(words->begin() + static_cast<std::ptrdiff_t>(head), words->end());
  }
}

// n^k > 2e6, decided before the product can wrap for a huge n.
bool TooManyTuples(size_t n, size_t k) {
  size_t r = 1;
  for (size_t i = 0; i < k; ++i) {
    if (n != 0 && r > 2'000'000 / n) return true;
    r *= n;
  }
  return r > 2'000'000;
}

struct TupleMetrics {
  explicit TupleMetrics(const std::string& p)
      : runs(obs::GetCounter(p + ".runs")),
        rounds(obs::GetCounter(p + ".rounds")),
        to_stable(obs::GetHistogram(p + ".rounds_to_stable",
                                    {1, 2, 4, 8, 16, 32, 64})),
        colors(obs::GetGauge(p + ".colors")),
        interner_size(obs::GetGauge(p + ".interner_size")) {}
  obs::Counter *runs, *rounds;
  obs::Histogram* to_stable;
  obs::Gauge *colors, *interner_size;
};

// Folklore and oblivious k-WL differ only in the round signature. With
// `equivalent` set, the run stops once graphs[0] and graphs[1] separate.
Result<KwlColoring> RefineTuples(const std::vector<const Graph*>& graphs,
                                 size_t k, int max_rounds, bool folklore,
                                 bool* equivalent = nullptr) {
  if (k == 0 || k > 4) {
    return Status::InvalidArgument(folklore
                                       ? "k-WL supports k in [1, 4]"
                                       : "oblivious k-WL supports k in [1, 4]");
  }
  // Guard against runaway table sizes (n^k tuples per graph).
  for (const Graph* g : graphs) {
    if (TooManyTuples(g->num_vertices(), k)) {
      return Status::OutOfRange("k-WL tuple table too large (n^k > 2e6)");
    }
  }
  static const TupleMetrics kFolklore("wl.kwl");
  static const TupleMetrics kOblivious("wl.oblivious_kwl");
  const TupleMetrics& metrics = folklore ? kFolklore : kOblivious;
  metrics.runs->Increment();
  obs::Probe probe(folklore ? "wl.kwl" : "wl.oblivious_kwl",
                   {{"k", k}, {"graphs", graphs.size()}});

  std::vector<TupleSpace> spaces;
  std::vector<size_t> sizes;
  for (const Graph* g : graphs) {
    spaces.emplace_back(g->num_vertices(), k);
    sizes.push_back(spaces.back().size());
  }
  RefinementRounds driver;
  KwlColoring out;
  out.k = k;
  out.stable.resize(graphs.size());

  // Atomic types; each graph's feature colors go just before its tuples.
  driver.BeginColoring();
  for (size_t g = 0; g < graphs.size(); ++g) {
    const Graph& graph = *graphs[g];
    std::vector<uint64_t> feature_colors(graph.num_vertices());
    driver.Intern(
        graph.num_vertices(),
        [&](size_t v, std::vector<uint64_t>* words) {
          AppendFeatureWords(graph.features(), v, words);
        },
        feature_colors.data(), /*counted=*/false);
    out.stable[g].resize(sizes[g]);
    driver.Intern(
        sizes[g],
        [&](size_t t, std::vector<uint64_t>* words) {
          AppendAtomicType(graph, spaces[g], t, feature_colors, words);
        },
        out.stable[g].data(), /*counted=*/true);
  }
  driver.EndColoring();

  for (size_t round = 1; !driver.Separated(out.stable, equivalent) &&
                         driver.Continue(round, max_rounds);
       ++round) {
    obs::Probe round_probe("wl.round", {{"round", round}});
    // Every previous color is below the interner's size.
    const unsigned bits = std::max<unsigned>(
        1, static_cast<unsigned>(std::bit_width(driver.interner().size() - 1)));
    std::vector<FolkloreRound> folklore_rounds;
    if (folklore) {
      for (size_t g = 0; g < graphs.size(); ++g)
        folklore_rounds.emplace_back(spaces[g], out.stable[g], bits);
    }
    out.stable = driver.Color(sizes, [&](size_t g, size_t t,
                                         std::vector<uint64_t>* words) {
      if (!folklore) return AppendOblivious(spaces[g], out.stable[g], t, words);
      switch (k) {
        case 2: return folklore_rounds[g].Append<2>(t, words);
        case 3: return folklore_rounds[g].Append<3>(t, words);
        default: return folklore_rounds[g].Append<4>(t, words);
      }
    });
    round_probe.SetArg("colors", static_cast<int64_t>(driver.distinct()));
    metrics.rounds->Increment();
    out.rounds = round;
  }
  if (equivalent == nullptr || *equivalent)
    metrics.to_stable->Observe(static_cast<int64_t>(out.rounds));
  metrics.colors->Set(static_cast<double>(driver.distinct()));
  metrics.interner_size->Set(static_cast<double>(driver.interner().size()));
  return out;
}

}  // namespace

uint64_t KwlColoring::TupleColor(size_t g, const std::vector<VertexId>& tuple,
                                 size_t n) const {
  GELC_CHECK(tuple.size() == k);
  size_t idx = 0;
  for (VertexId v : tuple) {
    GELC_CHECK(v < n);
    idx = idx * n + v;
  }
  return stable[g][idx];
}

Result<KwlColoring> RunKwl(const std::vector<const Graph*>& graphs, size_t k,
                           int max_rounds) {
  if (k == 1) {
    // Conventional identification: 1-WL == color refinement.
    CrColoring cr = RunColorRefinement(graphs, max_rounds);
    KwlColoring out;
    out.k = 1;
    out.stable = std::move(cr.stable);
    out.rounds = cr.rounds;
    return out;
  }
  return RefineTuples(graphs, k, max_rounds, /*folklore=*/true);
}

Result<KwlColoring> RunObliviousKwl(const std::vector<const Graph*>& graphs,
                                    size_t k, int max_rounds) {
  return RefineTuples(graphs, k, max_rounds, /*folklore=*/false);
}

Result<bool> ObliviousKwlEquivalentGraphs(const Graph& a, const Graph& b,
                                          size_t k) {
  bool equivalent = false;
  GELC_RETURN_NOT_OK(
      RefineTuples({&a, &b}, k, -1, /*folklore=*/false, &equivalent).status());
  return equivalent;
}

Result<bool> KwlEquivalentGraphs(const Graph& a, const Graph& b, size_t k) {
  if (k == 1) return CrEquivalentGraphs(a, b);
  bool equivalent = false;
  GELC_RETURN_NOT_OK(
      RefineTuples({&a, &b}, k, -1, /*folklore=*/true, &equivalent).status());
  return equivalent;
}

Result<size_t> MinimalSeparatingK(const Graph& a, const Graph& b,
                                  size_t k_max) {
  for (size_t k = 1; k <= k_max; ++k) {
    GELC_ASSIGN_OR_RETURN(bool equivalent, KwlEquivalentGraphs(a, b, k));
    if (!equivalent) return k;
  }
  return size_t{0};
}

}  // namespace gelc
