#include "base/alloc_tune.h"

#include <cstdlib>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace gelc {

void TuneAllocForTensorChurn() {
#if defined(__GLIBC__)
  static const bool tuned = [] {
    if (std::getenv("GELC_NO_MALLOC_TUNE") != nullptr) return false;
    // An explicit operator override wins; glibc read it at startup.
    if (std::getenv("MALLOC_MMAP_THRESHOLD_") != nullptr) return false;
    // 64 MiB: far above any single tape matrix, far below dataset scale.
    // Setting the threshold also disables glibc's dynamic adjustment,
    // which otherwise re-learns the churn size one munmap at a time.
    mallopt(M_MMAP_THRESHOLD, 64 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
    return true;
  }();
  (void)tuned;
#endif
}

void TuneAllocForUpdateReplay() {
#if defined(__GLIBC__)
  static const bool tuned = std::getenv("GELC_NO_MALLOC_TUNE") == nullptr &&
                            std::getenv("MALLOC_MMAP_THRESHOLD_") == nullptr &&
                            mallopt(M_MMAP_THRESHOLD, 128 << 10) == 1;
  (void)tuned;
#endif
}

}  // namespace gelc
