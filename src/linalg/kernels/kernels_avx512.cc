// AVX-512F kernels: 8-wide double / 16-wide float, plus a real scatter.
//
// Compiled with -mavx512f and -ffp-contract=off. The contract flag is
// load-bearing here: AVX-512F includes FMA instructions, so without it the
// compiler could legally fuse the scalar tails' a*b+c into one rounding and
// break bitwise identity with the portable path. Intrinsics below are
// explicit multiply-then-add for the same reason. Vectorization is across
// independent output elements only — see kernels.h.

#include "linalg/kernels/kernels_isa.h"

#if defined(CSRPLUS_HAVE_AVX512)
#include <immintrin.h>

#include <climits>
#endif

namespace csrplus {
namespace linalg {
namespace kernels {
namespace internal {

#if defined(CSRPLUS_HAVE_AVX512)

namespace {

void AxpyRowF64(double* c, const double* b, double a, int64_t n) {
  const __m512d va = _mm512_set1_pd(a);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d vb = _mm512_loadu_pd(b + j);
    const __m512d vc = _mm512_loadu_pd(c + j);
    _mm512_storeu_pd(c + j, AddPinned(MulPinned(va, vb), vc));
  }
  for (; j < n; ++j) c[j] = AddPinned(MulPinned(a, b[j]), c[j]);
}

void AxpyRowF32(float* c, const float* b, float a, int64_t n) {
  const __m512 va = _mm512_set1_ps(a);
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m512 vb = _mm512_loadu_ps(b + j);
    const __m512 vc = _mm512_loadu_ps(c + j);
    _mm512_storeu_ps(c + j, AddPinned(MulPinned(va, vb), vc));
  }
  for (; j < n; ++j) c[j] = AddPinned(MulPinned(a, b[j]), c[j]);
}

void ScaleF64(double* x, double a, int64_t n) {
  const __m512d va = _mm512_set1_pd(a);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm512_storeu_pd(x + j, MulPinned(va, _mm512_loadu_pd(x + j)));
  }
  for (; j < n; ++j) x[j] = MulPinned(a, x[j]);
}

void ScaleF32(float* x, float a, int64_t n) {
  const __m512 va = _mm512_set1_ps(a);
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    _mm512_storeu_ps(x + j, MulPinned(va, _mm512_loadu_ps(x + j)));
  }
  for (; j < n; ++j) x[j] = MulPinned(a, x[j]);
}

void DotRowsF64(const double* a, int64_t lda, const double* x, double* y,
                int64_t rows, int64_t k) {
  int64_t i = 0;
  const __m512i vidx = _mm512_setr_epi64(0, lda, 2 * lda, 3 * lda, 4 * lda,
                                         5 * lda, 6 * lda, 7 * lda);
  for (; i + 8 <= rows; i += 8) {
    const double* base = a + i * lda;
    __m512d acc = _mm512_setzero_pd();
    for (int64_t p = 0; p < k; ++p) {
      const __m512d va = _mm512_i64gather_pd(vidx, base + p, 8);
      acc = AddPinned(MulPinned(va, _mm512_set1_pd(x[p])), acc);
    }
    _mm512_storeu_pd(y + i, acc);
  }
  for (; i < rows; ++i) {
    const double* row = a + i * lda;
    double sum = 0.0;
    for (int64_t p = 0; p < k; ++p) {
      sum = AddPinned(MulPinned(row[p], x[p]), sum);
    }
    y[i] = sum;
  }
}

void DotRowsF32(const float* a, int64_t lda, const float* x, float* y,
                int64_t rows, int64_t k) {
  int64_t i = 0;
  // i32 gather indices: only usable while 15*lda fits in int32.
  if (lda <= INT_MAX / 16) {
    const int l = static_cast<int>(lda);
    const __m512i vidx = _mm512_setr_epi32(
        0, l, 2 * l, 3 * l, 4 * l, 5 * l, 6 * l, 7 * l, 8 * l, 9 * l, 10 * l,
        11 * l, 12 * l, 13 * l, 14 * l, 15 * l);
    for (; i + 16 <= rows; i += 16) {
      const float* base = a + i * lda;
      __m512 acc = _mm512_setzero_ps();
      for (int64_t p = 0; p < k; ++p) {
        const __m512 va = _mm512_i32gather_ps(vidx, base + p, 4);
        acc = AddPinned(MulPinned(va, _mm512_set1_ps(x[p])), acc);
      }
      _mm512_storeu_ps(y + i, acc);
    }
  }
  for (; i < rows; ++i) {
    const float* row = a + i * lda;
    float sum = 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      sum = AddPinned(MulPinned(row[p], x[p]), sum);
    }
    y[i] = sum;
  }
}

void ScatterF64(double* dst, int64_t stride, const double* src, int64_t n) {
  int64_t i = 0;
  const __m512i vidx =
      _mm512_setr_epi64(0, stride, 2 * stride, 3 * stride, 4 * stride,
                        5 * stride, 6 * stride, 7 * stride);
  for (; i + 8 <= n; i += 8) {
    _mm512_i64scatter_pd(dst + i * stride, vidx, _mm512_loadu_pd(src + i), 8);
  }
  for (; i < n; ++i) dst[i * stride] = src[i];
}

void ScatterF32(float* dst, int64_t stride, const float* src, int64_t n) {
  int64_t i = 0;
  if (stride <= INT_MAX / 16) {
    const int s = static_cast<int>(stride);
    const __m512i vidx = _mm512_setr_epi32(
        0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s, 8 * s, 9 * s, 10 * s,
        11 * s, 12 * s, 13 * s, 14 * s, 15 * s);
    for (; i + 16 <= n; i += 16) {
      _mm512_i32scatter_ps(dst + i * stride, vidx, _mm512_loadu_ps(src + i),
                           4);
    }
  }
  for (; i < n; ++i) dst[i * stride] = src[i];
}

constexpr KernelTable<double> kTableF64{&AxpyRowF64, &ScaleF64, &DotRowsF64,
                                        &ScatterF64};
constexpr KernelTable<float> kTableF32{&AxpyRowF32, &ScaleF32, &DotRowsF32,
                                       &ScatterF32};

}  // namespace

const KernelTable<double>* Avx512F64() { return &kTableF64; }
const KernelTable<float>* Avx512F32() { return &kTableF32; }

#else  // !CSRPLUS_HAVE_AVX512

const KernelTable<double>* Avx512F64() { return nullptr; }
const KernelTable<float>* Avx512F32() { return nullptr; }

#endif

}  // namespace internal
}  // namespace kernels
}  // namespace linalg
}  // namespace csrplus
