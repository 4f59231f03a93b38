// Process-wide allocator tuning for tensor-churn workloads.
//
// Training builds and destroys one Tape per (mini)batch per epoch, and a
// batched tape's node matrices run to hundreds of kilobytes — past
// glibc's default 128 KiB mmap threshold. Left alone, every such matrix
// is a fresh mmap at Push time and a munmap at tape destruction, so each
// epoch page-faults its whole working set back in from zero pages
// (measured: ~2.7k minor faults per epoch, ~3x on the batched forward
// pass; kernel time that no user-space profile shows). Raising the
// mmap/trim thresholds once keeps those blocks on the recycled heap.
#ifndef GELC_BASE_ALLOC_TUNE_H_
#define GELC_BASE_ALLOC_TUNE_H_

namespace gelc {

/// Raises the malloc mmap/trim thresholds so large, frequently recycled
/// tensor blocks stay on the heap instead of churning through
/// mmap/munmap. Idempotent and cheap after the first call; callers on
/// churn-heavy paths (Tape, GraphBatch) invoke it from their entry
/// points. No-op on non-glibc platforms, when the operator has tuned
/// malloc via MALLOC_MMAP_THRESHOLD_ themselves, or when
/// GELC_NO_MALLOC_TUNE is set.
void TuneAllocForTensorChurn();

/// Pins the mmap threshold at glibc's 128 KiB default, under the same
/// opt-outs. glibc otherwise raises it to the size of each mmapped block
/// freed; a replay loop freeing megabyte matrices then serves them from
/// the heap, which fragments around the refiner's state (an incremental
/// refiner's replay: 155 MB peak RSS in 5 s, 26 MB pinned).
void TuneAllocForUpdateReplay();

}  // namespace gelc

#endif  // GELC_BASE_ALLOC_TUNE_H_
