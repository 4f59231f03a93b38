// The one round driver behind every color refiner (CR, folklore and
// oblivious k-WL, the incremental refiner, the isomorphism oracle, relational
// CR): a k-WL round is one aggregation (Geerts-Reutter, arXiv 2204.04661).
// A refiner supplies only a builder appending an item's signature words.
// Signatures are written in parallel shards into per-shard arenas, then
// interned serially in (part, item) order, so ids are assigned in the same
// first-seen order at every thread count. Distinct ids are counted with
// per-id stamps; signatures lead with the item's own color, so a round that
// leaves the joint count unchanged leaves the partition stable.
#ifndef GELC_BASE_REFINE_H_
#define GELC_BASE_REFINE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/hash.h"
#include "base/logging.h"
#include "base/parallel.h"

namespace gelc {

/// The stable colors of a joint run: stable[g][item] for graph g.
struct GraphColoring {
  std::vector<std::vector<uint64_t>> stable;
  /// Refinement rounds run.
  size_t rounds = 0;

  /// Sorted multiset of graph g's colors: its graph-level signature.
  std::vector<uint64_t> GraphSignature(size_t g) const {
    GELC_CHECK_LT(g, stable.size());
    std::vector<uint64_t> sig = stable[g];
    std::sort(sig.begin(), sig.end());
    return sig;
  }
};

class RefinementRounds {
 public:
  /// coloring[part][item] = color id.
  using Coloring = std::vector<std::vector<uint64_t>>;

  const WordInterner& interner() const { return interner_; }

  /// A coloring's distinct count covers the ids interned `counted`
  /// between these two calls; it is stable if it equals the previous one.
  void BeginColoring() {
    ++epoch_;
    distinct_ = 0;
  }
  void EndColoring() {
    stable_ = colorings_++ > 0 && distinct_ == last_distinct_;
    last_distinct_ = distinct_;
  }

  /// ids[i] = id of the words build(i, &words) appends, i < count.
  template <typename Build>
  void Intern(size_t count, const Build& build, uint64_t* ids, bool counted);

  /// A whole coloring: [p][i] = id of build(p, i, &words), i < sizes[p].
  template <typename Build>
  Coloring Color(const std::vector<size_t>& sizes, const Build& build) {
    Coloring next(sizes.size());
    BeginColoring();
    for (size_t p = 0; p < sizes.size(); ++p) {
      next[p].resize(sizes[p]);
      Intern(
          sizes[p],
          [&](size_t i, std::vector<uint64_t>* words) { build(p, i, words); },
          next[p].data(), /*counted=*/true);
    }
    EndColoring();
    return next;
  }

  /// Round `round` (from 1) runs unless stable or past `max_rounds` >= 0.
  bool Continue(size_t round, int max_rounds) const {
    return !stable_ &&
           (max_rounds < 0 || round <= static_cast<size_t>(max_rounds));
  }

  /// Distinct count of the last coloring.
  size_t distinct() const { return last_distinct_; }

  /// Verdict-only runs over two graphs: with `equivalent` set, stores
  /// whether parts 0 and 1 of `c` have equal color histograms and returns
  /// true once not (each coloring is a function of the next). O(items).
  bool Separated(const Coloring& c, bool* equivalent) {
    if (equivalent == nullptr) return false;
    bool same = c[0].size() == c[1].size();
    balance_.resize(interner_.size(), 0);
    for (uint64_t id : c[0]) ++balance_[id];
    for (uint64_t id : c[1]) --balance_[id];
    for (const std::vector<uint64_t>* part : {&c[0], &c[1]}) {
      for (uint64_t id : *part) {
        same = same && balance_[id] == 0;
        balance_[id] = 0;
      }
    }
    *equivalent = same;
    return !same;
  }

 private:
  // Items per block, bounding the arenas whatever the item count.
  static constexpr size_t kBlockItems = size_t{1} << 15;
  // Fewest items worth a shard of their own.
  static constexpr size_t kShardGrain = 64;

  struct Shard {
    std::vector<uint64_t> words;
    std::vector<size_t> ends;
    std::vector<uint64_t> hashes;
  };

  WordInterner interner_;
  std::vector<Shard> shards_;
  std::vector<uint32_t> stamps_;  // == epoch_: counted in this coloring
  std::vector<int64_t> balance_;  // all zero between Separated calls
  uint32_t epoch_ = 0;
  size_t distinct_ = 0;
  size_t last_distinct_ = 0;
  size_t colorings_ = 0;
  bool stable_ = false;
};

template <typename Build>
void RefinementRounds::Intern(size_t count, const Build& build, uint64_t* ids,
                              bool counted) {
  for (size_t lo = 0; lo < count; lo += kBlockItems) {
    const size_t hi = std::min(count, lo + kBlockItems);
    const size_t shards = std::min(ParallelThreadCount(),
                                   (hi - lo + kShardGrain - 1) / kShardGrain);
    const size_t per = (hi - lo + shards - 1) / shards;
    if (shards_.size() < shards) shards_.resize(shards);
    ParallelFor(0, shards, 1, [&](size_t sb, size_t se) {
      for (size_t s = sb; s < se; ++s) {
        Shard& shard = shards_[s];
        shard.words.clear();
        shard.ends.clear();
        shard.hashes.clear();
        const size_t end = std::min(hi, lo + (s + 1) * per);
        for (size_t i = std::min(hi, lo + s * per); i < end; ++i) {
          const size_t start = shard.words.size();
          build(i, &shard.words);
          shard.ends.push_back(shard.words.size());
          shard.hashes.push_back(HashWords(shard.words.data() + start,
                                           shard.words.size() - start));
        }
      }
    });
    uint64_t* out = ids + lo;
    for (size_t s = 0; s < shards; ++s) {
      const Shard& shard = shards_[s];
      for (size_t j = 0, start = 0; j < shard.ends.size(); ++j) {
        const uint64_t id = interner_.Intern(
            shard.words.data() + start, shard.ends[j] - start, shard.hashes[j]);
        start = shard.ends[j];
        *out++ = id;
        if (!counted) continue;
        if (id >= stamps_.size()) stamps_.resize(interner_.size(), 0);
        if (stamps_[id] != epoch_) {
          stamps_[id] = epoch_;
          ++distinct_;
        }
      }
    }
  }
}

}  // namespace gelc

#endif  // GELC_BASE_REFINE_H_
