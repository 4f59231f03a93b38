// Hashing utilities: 64-bit FNV-1a, hash combining, and an interning table
// that maps word signatures to small dense canonical ids (the color ids of
// every refiner, base/refine.h).
#ifndef GELC_BASE_HASH_H_
#define GELC_BASE_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace gelc {

/// 64-bit FNV-1a over a byte range.
inline uint64_t Fnv1a64(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

inline uint64_t Fnv1a64(std::string_view s) { return Fnv1a64(s.data(), s.size()); }

/// Boost-style hash combining with 64-bit golden-ratio mixing.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4);
  return seed;
}

/// Order- and length-sensitive 64-bit hash of a word span, in four
/// independent lanes so long signatures keep the multiplier busy.
inline uint64_t HashWords(const uint64_t* words, size_t n) {
  constexpr uint64_t kMul = 0xBF58476D1CE4E5B9ULL;
  uint64_t lane[4] = {n, 0x94D049BB133111EBULL, 0xD6E8FEB86659FD93ULL,
                      0xA0761D6478BD642FULL};
  for (size_t i = 0; i < n; ++i) {
    uint64_t& h = lane[i & 3];
    h = (h ^ words[i]) * kMul;
    h ^= h >> 31;
  }
  uint64_t h = lane[0];
  for (size_t l = 1; l < 4; ++l) h = (h ^ lane[l]) * kMul + (h >> 29);
  return h ^ (h >> 32);
}

/// Maps word signatures to dense canonical ids 0, 1, 2, ... in first-seen
/// order. Two items (possibly in different graphs) get the same color id
/// iff their refinement signatures are equal word for word, so colorings
/// sharing one interner compare by id. Signatures are copied into
/// fixed-size chunks and found through an open-addressing table; lookups
/// compare the words exactly, so the hash only chooses where to look.
class WordInterner {
 public:
  /// The id of words[0, len), the next id if new. `hash` must be
  /// HashWords(words, len).
  uint64_t Intern(const uint64_t* words, size_t len, uint64_t hash);
  /// Number of distinct signatures seen (every id is below it).
  size_t size() const { return size_; }

 private:
  static constexpr uint32_t kFree = UINT32_MAX;
  // Words per chunk (512 KiB); a longer signature gets its own. Chunks
  // never reallocate, so slots can point into them.
  static constexpr size_t kChunkWords = size_t{1} << 16;
  struct Slot {
    uint64_t hash = 0;
    const uint64_t* words = nullptr;
    uint32_t length = 0;
    uint32_t id = kFree;
  };
  void Grow();

  std::vector<std::vector<uint64_t>> chunks_;
  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace gelc

#endif  // GELC_BASE_HASH_H_
