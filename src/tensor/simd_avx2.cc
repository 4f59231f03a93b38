// AVX2/FMA kernel bodies — the only translation unit in the tree built
// with -mavx2 -mfma (and the only one allowed to touch immintrin.h; the
// intrinsics-outside-tensor lint rule enforces it).
//
// Two tables are exported:
//
//   Avx2Table()  multiply-then-add vectorization. Every output cell sees
//                one _mm256_mul_pd and one _mm256_add_pd per reduction
//                step, in the same ascending order as the scalar loops —
//                two roundings per step, exactly like `t += a * b` — so
//                this tier is bit-identical to the scalar tier. Loads
//                and stores of partial sums at block boundaries are
//                exact and change nothing.
//   FastTable()  the same structure with _mm256_fmadd_pd: one rounding
//                per step, so bits may differ (opt-in via
//                GELC_SIMD=fast; tolerance-checked in simd_test).
//
// Max reductions use compare+blend ((acc < x) ? x : acc) rather than
// _mm256_max_pd, which disagrees with std::max on signed zeros and NaN
// placement; the blend reproduces std::max exactly in every tier.
#include "tensor/simd_internal.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "base/aligned.h"
#include "base/logging.h"

namespace gelc {
namespace simd {
namespace internal {
namespace {

// One reduction step: acc + x*y with two roundings (kAvx2, matches the
// scalar tier bit-for-bit) or one fused rounding (kFast).
template <bool kUseFma>
inline __m256d MulAdd(__m256d acc, __m256d x, __m256d y) {
  if constexpr (kUseFma) {
    return _mm256_fmadd_pd(x, y, acc);
  } else {
    return _mm256_add_pd(acc, _mm256_mul_pd(x, y));
  }
}

// std::max(acc, x) per lane: keep acc unless acc < x (ordered, quiet).
inline __m256d MaxBlend(__m256d acc, __m256d x) {
  return _mm256_blendv_pd(acc, x, _mm256_cmp_pd(acc, x, _CMP_LT_OQ));
}

// k-panel length for the dense product: a 256-step panel touches
// 256 x 8 doubles of B per register tile (16 KiB, L1-resident) while the
// C tile stays in registers. Panel boundaries load/store exact partial
// sums, so panel size never changes bits — only locality.
constexpr size_t kMatMulKPanel = 256;

// ---------------------------------------------------------------------------
// Dense MatMul: cache-blocked, register-tiled (4 rows x 8 columns).
// ---------------------------------------------------------------------------

template <bool kUseFma>
void MatMulRowsVec(const double* a, const double* b, double* out,
                   size_t row_begin, size_t row_end, size_t inner,
                   size_t ocols) {
  GELC_DCHECK(IsVectorAligned(a));
  GELC_DCHECK(IsVectorAligned(b));
  GELC_DCHECK(IsVectorAligned(out));
  for (size_t k0 = 0; k0 < inner; k0 += kMatMulKPanel) {
    const size_t k1 = std::min(k0 + kMatMulKPanel, inner);
    size_t i = row_begin;
    // 4-row micro-kernel: 8 accumulator registers (4 rows x 8 columns),
    // two B loads and four broadcasts per k step.
    for (; i + 4 <= row_end; i += 4) {
      const double* a0 = a + (i + 0) * inner;
      const double* a1 = a + (i + 1) * inner;
      const double* a2 = a + (i + 2) * inner;
      const double* a3 = a + (i + 3) * inner;
      double* o0 = out + (i + 0) * ocols;
      double* o1 = out + (i + 1) * ocols;
      double* o2 = out + (i + 2) * ocols;
      double* o3 = out + (i + 3) * ocols;
      size_t j = 0;
      for (; j + 8 <= ocols; j += 8) {
        __m256d c00 = _mm256_loadu_pd(o0 + j);
        __m256d c01 = _mm256_loadu_pd(o0 + j + 4);
        __m256d c10 = _mm256_loadu_pd(o1 + j);
        __m256d c11 = _mm256_loadu_pd(o1 + j + 4);
        __m256d c20 = _mm256_loadu_pd(o2 + j);
        __m256d c21 = _mm256_loadu_pd(o2 + j + 4);
        __m256d c30 = _mm256_loadu_pd(o3 + j);
        __m256d c31 = _mm256_loadu_pd(o3 + j + 4);
        for (size_t k = k0; k < k1; ++k) {
          const double* brow = b + k * ocols + j;
          const __m256d b0 = _mm256_loadu_pd(brow);
          const __m256d b1 = _mm256_loadu_pd(brow + 4);
          __m256d av = _mm256_set1_pd(a0[k]);
          c00 = MulAdd<kUseFma>(c00, av, b0);
          c01 = MulAdd<kUseFma>(c01, av, b1);
          av = _mm256_set1_pd(a1[k]);
          c10 = MulAdd<kUseFma>(c10, av, b0);
          c11 = MulAdd<kUseFma>(c11, av, b1);
          av = _mm256_set1_pd(a2[k]);
          c20 = MulAdd<kUseFma>(c20, av, b0);
          c21 = MulAdd<kUseFma>(c21, av, b1);
          av = _mm256_set1_pd(a3[k]);
          c30 = MulAdd<kUseFma>(c30, av, b0);
          c31 = MulAdd<kUseFma>(c31, av, b1);
        }
        _mm256_storeu_pd(o0 + j, c00);
        _mm256_storeu_pd(o0 + j + 4, c01);
        _mm256_storeu_pd(o1 + j, c10);
        _mm256_storeu_pd(o1 + j + 4, c11);
        _mm256_storeu_pd(o2 + j, c20);
        _mm256_storeu_pd(o2 + j + 4, c21);
        _mm256_storeu_pd(o3 + j, c30);
        _mm256_storeu_pd(o3 + j + 4, c31);
      }
      for (; j + 4 <= ocols; j += 4) {
        __m256d c0 = _mm256_loadu_pd(o0 + j);
        __m256d c1 = _mm256_loadu_pd(o1 + j);
        __m256d c2 = _mm256_loadu_pd(o2 + j);
        __m256d c3 = _mm256_loadu_pd(o3 + j);
        for (size_t k = k0; k < k1; ++k) {
          const __m256d bv = _mm256_loadu_pd(b + k * ocols + j);
          c0 = MulAdd<kUseFma>(c0, _mm256_set1_pd(a0[k]), bv);
          c1 = MulAdd<kUseFma>(c1, _mm256_set1_pd(a1[k]), bv);
          c2 = MulAdd<kUseFma>(c2, _mm256_set1_pd(a2[k]), bv);
          c3 = MulAdd<kUseFma>(c3, _mm256_set1_pd(a3[k]), bv);
        }
        _mm256_storeu_pd(o0 + j, c0);
        _mm256_storeu_pd(o1 + j, c1);
        _mm256_storeu_pd(o2 + j, c2);
        _mm256_storeu_pd(o3 + j, c3);
      }
      for (; j < ocols; ++j) {
        // Scalar column tail: the same two-rounding ascending-k chain.
        double t0 = o0[j], t1 = o1[j], t2 = o2[j], t3 = o3[j];
        for (size_t k = k0; k < k1; ++k) {
          const double bkj = b[k * ocols + j];
          t0 += a0[k] * bkj;
          t1 += a1[k] * bkj;
          t2 += a2[k] * bkj;
          t3 += a3[k] * bkj;
        }
        o0[j] = t0;
        o1[j] = t1;
        o2[j] = t2;
        o3[j] = t3;
      }
    }
    // Row tail: one row at a time, same column blocking.
    for (; i < row_end; ++i) {
      const double* arow = a + i * inner;
      double* orow = out + i * ocols;
      size_t j = 0;
      for (; j + 8 <= ocols; j += 8) {
        __m256d c0 = _mm256_loadu_pd(orow + j);
        __m256d c1 = _mm256_loadu_pd(orow + j + 4);
        for (size_t k = k0; k < k1; ++k) {
          const double* brow = b + k * ocols + j;
          const __m256d av = _mm256_set1_pd(arow[k]);
          c0 = MulAdd<kUseFma>(c0, av, _mm256_loadu_pd(brow));
          c1 = MulAdd<kUseFma>(c1, av, _mm256_loadu_pd(brow + 4));
        }
        _mm256_storeu_pd(orow + j, c0);
        _mm256_storeu_pd(orow + j + 4, c1);
      }
      for (; j + 4 <= ocols; j += 4) {
        __m256d c0 = _mm256_loadu_pd(orow + j);
        for (size_t k = k0; k < k1; ++k) {
          c0 = MulAdd<kUseFma>(c0, _mm256_set1_pd(arow[k]),
                               _mm256_loadu_pd(b + k * ocols + j));
        }
        _mm256_storeu_pd(orow + j, c0);
      }
      for (; j < ocols; ++j) {
        double t = orow[j];
        for (size_t k = k0; k < k1; ++k) t += arow[k] * b[k * ocols + j];
        orow[j] = t;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SpMM: row-blocked CSR walk with column-index prefetch.
// ---------------------------------------------------------------------------

// How many nonzeros ahead to prefetch the B row for. The gather pattern
// of b rows is the only irregular access; eight entries (~one row_offsets
// cache line of indices) hides most of the miss latency at d = 16..64
// without thrashing L1 on dense rows.
constexpr size_t kSpMMPrefetchAhead = 8;

template <bool kUseFma>
void SpMMRowsVec(const size_t* row_offsets, const uint32_t* col_indices,
                 const double* values, const double* b, double* out,
                 size_t row_begin, size_t row_end, size_t d) {
  // Unaligned loads and stores throughout: `out` only has to be a double
  // array (SpMMDeltaInto passes single output rows at offset r * d).
  GELC_DCHECK(IsVectorAligned(b));
  GELC_DCHECK_EQ(reinterpret_cast<uintptr_t>(out) % alignof(double), 0u);
  for (size_t i = row_begin; i < row_end; ++i) {
    double* orow = out + i * d;
    const size_t begin = row_offsets[i];
    const size_t end = row_offsets[i + 1];
    GELC_DCHECK_LE(begin, end);
    for (size_t k = begin; k < end; ++k) {
      if (k + kSpMMPrefetchAhead < end) {
        _mm_prefetch(reinterpret_cast<const char*>(
                         b + size_t{col_indices[k + kSpMMPrefetchAhead]} * d),
                     _MM_HINT_T0);
      }
      const double* brow = b + size_t{col_indices[k]} * d;
      size_t j = 0;
      if (values != nullptr) {
        const double w = values[k];
        const __m256d wv = _mm256_set1_pd(w);
        for (; j + 8 <= d; j += 8) {
          _mm256_storeu_pd(orow + j,
                           MulAdd<kUseFma>(_mm256_loadu_pd(orow + j), wv,
                                           _mm256_loadu_pd(brow + j)));
          _mm256_storeu_pd(orow + j + 4,
                           MulAdd<kUseFma>(_mm256_loadu_pd(orow + j + 4), wv,
                                           _mm256_loadu_pd(brow + j + 4)));
        }
        for (; j + 4 <= d; j += 4) {
          _mm256_storeu_pd(orow + j,
                           MulAdd<kUseFma>(_mm256_loadu_pd(orow + j), wv,
                                           _mm256_loadu_pd(brow + j)));
        }
        for (; j < d; ++j) orow[j] += w * brow[j];
      } else {
        for (; j + 8 <= d; j += 8) {
          _mm256_storeu_pd(orow + j,
                           _mm256_add_pd(_mm256_loadu_pd(orow + j),
                                         _mm256_loadu_pd(brow + j)));
          _mm256_storeu_pd(orow + j + 4,
                           _mm256_add_pd(_mm256_loadu_pd(orow + j + 4),
                                         _mm256_loadu_pd(brow + j + 4)));
        }
        for (; j + 4 <= d; j += 4) {
          _mm256_storeu_pd(orow + j,
                           _mm256_add_pd(_mm256_loadu_pd(orow + j),
                                         _mm256_loadu_pd(brow + j)));
        }
        for (; j < d; ++j) orow[j] += brow[j];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Row primitives (fused / segment / plan-executor inner loops).
// ---------------------------------------------------------------------------

void AddRowVec(double* acc, const double* x, size_t d) {
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    _mm256_storeu_pd(
        acc + j, _mm256_add_pd(_mm256_loadu_pd(acc + j),
                               _mm256_loadu_pd(x + j)));
  }
  for (; j < d; ++j) acc[j] += x[j];
}

template <bool kUseFma>
void AddScaledRowVec(double* acc, const double* x, double w, size_t d) {
  const __m256d wv = _mm256_set1_pd(w);
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    _mm256_storeu_pd(acc + j, MulAdd<kUseFma>(_mm256_loadu_pd(acc + j), wv,
                                              _mm256_loadu_pd(x + j)));
  }
  for (; j < d; ++j) acc[j] += w * x[j];
}

void MaxRowVec(double* acc, const double* x, size_t d) {
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    _mm256_storeu_pd(acc + j, MaxBlend(_mm256_loadu_pd(acc + j),
                                       _mm256_loadu_pd(x + j)));
  }
  for (; j < d; ++j) acc[j] = acc[j] < x[j] ? x[j] : acc[j];
}

void ScaleRowVec(double* acc, double s, size_t d) {
  const __m256d sv = _mm256_set1_pd(s);
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    _mm256_storeu_pd(acc + j, _mm256_mul_pd(_mm256_loadu_pd(acc + j), sv));
  }
  for (; j < d; ++j) acc[j] *= s;
}

void DivRowVec(double* acc, double s, size_t d) {
  const __m256d sv = _mm256_set1_pd(s);
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    _mm256_storeu_pd(acc + j, _mm256_div_pd(_mm256_loadu_pd(acc + j), sv));
  }
  for (; j < d; ++j) acc[j] /= s;
}

template <bool kUseFma>
void GinCombineRowVec(double* out, const double* self, double c,
                      const double* agg, size_t d) {
  const __m256d cv = _mm256_set1_pd(c);
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    // self * c + agg: same two-rounding shape as the scalar expression
    // (one multiply, one add) in the default tier.
    _mm256_storeu_pd(out + j, MulAdd<kUseFma>(_mm256_loadu_pd(agg + j), cv,
                                              _mm256_loadu_pd(self + j)));
  }
  for (; j < d; ++j) out[j] = self[j] * c + agg[j];
}

template <bool kUseFma>
void LinearAccumVec(double* acc, const double* x, const double* w, size_t d,
                    size_t out_dim) {
  size_t j = 0;
  for (; j + 8 <= out_dim; j += 8) {
    __m256d c0 = _mm256_loadu_pd(acc + j);
    __m256d c1 = _mm256_loadu_pd(acc + j + 4);
    for (size_t c = 0; c < d; ++c) {
      const __m256d xv = _mm256_set1_pd(x[c]);
      const double* wrow = w + c * out_dim + j;
      c0 = MulAdd<kUseFma>(c0, xv, _mm256_loadu_pd(wrow));
      c1 = MulAdd<kUseFma>(c1, xv, _mm256_loadu_pd(wrow + 4));
    }
    _mm256_storeu_pd(acc + j, c0);
    _mm256_storeu_pd(acc + j + 4, c1);
  }
  for (; j + 4 <= out_dim; j += 4) {
    __m256d c0 = _mm256_loadu_pd(acc + j);
    for (size_t c = 0; c < d; ++c) {
      c0 = MulAdd<kUseFma>(c0, _mm256_set1_pd(x[c]),
                           _mm256_loadu_pd(w + c * out_dim + j));
    }
    _mm256_storeu_pd(acc + j, c0);
  }
  for (; j < out_dim; ++j) {
    double t = acc[j];
    for (size_t c = 0; c < d; ++c) t += x[c] * w[c * out_dim + j];
    acc[j] = t;
  }
}

void ScaleRowCopyVec(double* out, const double* x, double s, size_t d) {
  const __m256d sv = _mm256_set1_pd(s);
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    _mm256_storeu_pd(out + j, _mm256_mul_pd(sv, _mm256_loadu_pd(x + j)));
  }
  for (; j < d; ++j) out[j] = s * x[j];
}

void AddRowsToVec(double* out, const double* a, const double* b, size_t d) {
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    _mm256_storeu_pd(out + j, _mm256_add_pd(_mm256_loadu_pd(a + j),
                                            _mm256_loadu_pd(b + j)));
  }
  for (; j < d; ++j) out[j] = a[j] + b[j];
}

void MulRowsToVec(double* out, const double* a, const double* b, size_t d) {
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    _mm256_storeu_pd(out + j, _mm256_mul_pd(_mm256_loadu_pd(a + j),
                                            _mm256_loadu_pd(b + j)));
  }
  for (; j < d; ++j) out[j] = a[j] * b[j];
}

constexpr KernelTable kAvx2Table = {
    MatMulRowsVec<false>, SpMMRowsVec<false>,     AddRowVec,
    AddScaledRowVec<false>, MaxRowVec,            ScaleRowVec,
    DivRowVec,            GinCombineRowVec<false>, LinearAccumVec<false>,
    ScaleRowCopyVec,      AddRowsToVec,           MulRowsToVec,
};

constexpr KernelTable kFastTable = {
    MatMulRowsVec<true>,  SpMMRowsVec<true>,      AddRowVec,
    AddScaledRowVec<true>, MaxRowVec,             ScaleRowVec,
    DivRowVec,            GinCombineRowVec<true>, LinearAccumVec<true>,
    ScaleRowCopyVec,      AddRowsToVec,           MulRowsToVec,
};

}  // namespace

const KernelTable* Avx2Table() { return &kAvx2Table; }
const KernelTable* FastTable() { return &kFastTable; }

}  // namespace internal
}  // namespace simd
}  // namespace gelc

#else  // !(defined(__AVX2__) && defined(__FMA__))

namespace gelc {
namespace simd {
namespace internal {

// Built without AVX2/FMA support (non-x86 target or missing -mavx2
// -mfma): no vector tables; the dispatcher pins the scalar tier.
const KernelTable* Avx2Table() { return nullptr; }
const KernelTable* FastTable() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace gelc

#endif
