// AVX2 kernels: 4-wide double / 8-wide float.
//
// Compiled with -mavx2 only — deliberately NOT -mfma, and with
// -ffp-contract=off — so every a*b+c below is a separate multiply and add
// with two roundings, exactly like the portable scalar path. Vectorization
// is across independent output elements only: axpy/scale lanes own distinct
// c[j]; dot_rows lanes own distinct output rows and walk k sequentially via
// gathers. See kernels.h for the bit-identity contract.

#include "linalg/kernels/kernels_isa.h"

#if defined(CSRPLUS_HAVE_AVX2)
#include <immintrin.h>

#include <climits>
#endif

namespace csrplus {
namespace linalg {
namespace kernels {
namespace internal {

#if defined(CSRPLUS_HAVE_AVX2)

namespace {

void AxpyRowF64(double* c, const double* b, double a, int64_t n) {
  const __m256d va = _mm256_set1_pd(a);
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d vb = _mm256_loadu_pd(b + j);
    const __m256d vc = _mm256_loadu_pd(c + j);
    _mm256_storeu_pd(c + j, AddPinned(MulPinned(va, vb), vc));
  }
  for (; j < n; ++j) c[j] = AddPinned(MulPinned(a, b[j]), c[j]);
}

void AxpyRowF32(float* c, const float* b, float a, int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 vb = _mm256_loadu_ps(b + j);
    const __m256 vc = _mm256_loadu_ps(c + j);
    _mm256_storeu_ps(c + j, AddPinned(MulPinned(va, vb), vc));
  }
  for (; j < n; ++j) c[j] = AddPinned(MulPinned(a, b[j]), c[j]);
}

void ScaleF64(double* x, double a, int64_t n) {
  const __m256d va = _mm256_set1_pd(a);
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(x + j, MulPinned(va, _mm256_loadu_pd(x + j)));
  }
  for (; j < n; ++j) x[j] = MulPinned(a, x[j]);
}

void ScaleF32(float* x, float a, int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(x + j, MulPinned(va, _mm256_loadu_ps(x + j)));
  }
  for (; j < n; ++j) x[j] = MulPinned(a, x[j]);
}

// Each gather lane walks one output row; k advances sequentially, so every
// y[i] accumulates in exactly the scalar order.
void DotRowsF64(const double* a, int64_t lda, const double* x, double* y,
                int64_t rows, int64_t k) {
  int64_t i = 0;
  const __m256i vidx = _mm256_setr_epi64x(0, lda, 2 * lda, 3 * lda);
  for (; i + 4 <= rows; i += 4) {
    const double* base = a + i * lda;
    __m256d acc = _mm256_setzero_pd();
    for (int64_t p = 0; p < k; ++p) {
      const __m256d va = _mm256_i64gather_pd(base + p, vidx, 8);
      acc = AddPinned(MulPinned(va, _mm256_set1_pd(x[p])), acc);
    }
    _mm256_storeu_pd(y + i, acc);
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
  // i32 gather indices: only usable while 7*lda fits in int32.
  if (lda <= INT_MAX / 8) {
    const int l = static_cast<int>(lda);
    const __m256i vidx =
        _mm256_setr_epi32(0, l, 2 * l, 3 * l, 4 * l, 5 * l, 6 * l, 7 * l);
    for (; i + 8 <= rows; i += 8) {
      const float* base = a + i * lda;
      __m256 acc = _mm256_setzero_ps();
      for (int64_t p = 0; p < k; ++p) {
        const __m256 va = _mm256_i32gather_ps(base + p, vidx, 4);
        acc = AddPinned(MulPinned(va, _mm256_set1_ps(x[p])), acc);
      }
      _mm256_storeu_ps(y + i, acc);
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

// AVX2 has no scatter instruction; keep the scalar loop so the table is
// complete (AVX-512 vectorizes this one).
template <typename T>
void ScatterScalar(T* dst, int64_t stride, const T* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i * stride] = src[i];
}

constexpr KernelTable<double> kTableF64{&AxpyRowF64, &ScaleF64, &DotRowsF64,
                                        &ScatterScalar<double>};
constexpr KernelTable<float> kTableF32{&AxpyRowF32, &ScaleF32, &DotRowsF32,
                                       &ScatterScalar<float>};

}  // namespace

const KernelTable<double>* Avx2F64() { return &kTableF64; }
const KernelTable<float>* Avx2F32() { return &kTableF32; }

#else  // !CSRPLUS_HAVE_AVX2

const KernelTable<double>* Avx2F64() { return nullptr; }
const KernelTable<float>* Avx2F32() { return nullptr; }

#endif

}  // namespace internal
}  // namespace kernels
}  // namespace linalg
}  // namespace csrplus
