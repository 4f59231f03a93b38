#include "base/hash.h"

#include <algorithm>
#include <cstring>

#include "base/logging.h"

namespace gelc {

uint64_t WordInterner::Intern(const uint64_t* words, size_t len,
                              uint64_t hash) {
  if (2 * (size_ + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.id != kFree) {
      if (s.hash == hash && s.length == len &&
          (len == 0 || std::memcmp(s.words, words, len * 8) == 0))
        return s.id;
      continue;
    }
    GELC_CHECK(len < kFree && size_ < kFree);
    if (chunks_.empty() ||
        chunks_.back().capacity() - chunks_.back().size() < len)
      chunks_.emplace_back().reserve(std::max(kChunkWords, len));
    std::vector<uint64_t>& chunk = chunks_.back();
    chunk.insert(chunk.end(), words, words + len);
    s = {hash, chunk.data() + chunk.size() - len, static_cast<uint32_t>(len),
         static_cast<uint32_t>(size_)};
    return size_++;
  }
}

void WordInterner::Grow() {
  std::vector<Slot> old(std::max<size_t>(64, 2 * slots_.size()));
  old.swap(slots_);
  const size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kFree) continue;
    size_t i = s.hash & mask;
    while (slots_[i].id != kFree) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

}  // namespace gelc
