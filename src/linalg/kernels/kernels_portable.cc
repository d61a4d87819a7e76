// Portable scalar reference kernels.
//
// These loops define the semantics every SIMD path must reproduce bitwise
// (tests/kernels_test.cc enforces 0 ULP). Keep them boring: no manual
// unrolling, no reassociation, no zero-skips — 0 * NaN must stay NaN — and
// every add/multiply through AddPinned/MulPinned, so the NaN a two-NaN
// operation returns does not depend on the optimisation level.

#include "linalg/kernels/kernels_isa.h"

namespace csrplus {
namespace linalg {
namespace kernels {
namespace internal {
namespace {

template <typename T>
void AxpyRow(T* c, const T* b, T a, int64_t n) {
  for (int64_t j = 0; j < n; ++j) c[j] = AddPinned(MulPinned(a, b[j]), c[j]);
}

template <typename T>
void Scale(T* x, T a, int64_t n) {
  for (int64_t j = 0; j < n; ++j) x[j] = MulPinned(a, x[j]);
}

template <typename T>
void DotRows(const T* a, int64_t lda, const T* x, T* y, int64_t rows,
             int64_t k) {
  for (int64_t i = 0; i < rows; ++i) {
    const T* row = a + i * lda;
    T sum = T(0);
    for (int64_t p = 0; p < k; ++p) {
      sum = AddPinned(MulPinned(row[p], x[p]), sum);
    }
    y[i] = sum;
  }
}

template <typename T>
void Scatter(T* dst, int64_t stride, const T* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i * stride] = src[i];
}

template <typename T>
constexpr KernelTable<T> kTable{&AxpyRow<T>, &Scale<T>, &DotRows<T>,
                                &Scatter<T>};

}  // namespace

const KernelTable<double>* PortableF64() { return &kTable<double>; }
const KernelTable<float>* PortableF32() { return &kTable<float>; }

}  // namespace internal
}  // namespace kernels
}  // namespace linalg
}  // namespace csrplus
