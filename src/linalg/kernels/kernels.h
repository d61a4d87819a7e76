// Runtime-dispatched SIMD kernels for the query-phase hot loops.
//
// The query phase of CSR+ is dominated by a handful of primitive loops: the
// dense GEMM [S] = Z * [U]_{Q,*}^T, the SpMM inner rows, the per-row dot
// products of MatVec, and the strided scatter that copies a cached column
// into a result block. This module provides those primitives
// as per-ISA function tables (portable scalar, AVX2, AVX-512), selected once
// at startup from CPUID and overridable with CSRPLUS_KERNEL_ISA for testing.
//
// Bit-identity contract
// ---------------------
// Every SIMD path produces *bitwise identical* results to the portable
// scalar path, by construction: kernels vectorize only across independent
// output elements (the columns of an axpy row, the rows of a dot-product
// block) and never reorder the floating-point accumulation chain of any
// single output. axpy_row lanes each own one c[j]; dot_rows lanes each own
// one y[i] and walk k sequentially via gathers. No FMA is ever emitted (the
// ISA translation units are compiled with -ffp-contract=off and without
// -mfma), so a*b+c rounds twice exactly like the scalar code. Every add and
// multiply also pins its operand order (AddPinned/MulPinned in
// kernels_isa.h), so when both operands are NaN every path returns the same
// one, at every optimisation level. This is what keeps the repo's bitwise
// determinism guarantees (same-fingerprint cache hits, batched == unbatched
// service results, golden artifacts) valid on every dispatch path — and it
// is enforced by tests/kernels_test.cc with a 0-ULP budget for both double
// and float tables.
//
// Dispatch
// --------
// The active ISA is chosen at first use: CSRPLUS_KERNEL_ISA=portable|avx2|
// avx512 if set (falling back with a warning when the CPU or compiler lacks
// the requested path), otherwise the widest supported ISA. SetActiveIsa()
// swaps atomic pointers to immutable per-ISA tables, so tests can force a
// path mid-process and concurrent readers stay race-free.

#ifndef CSRPLUS_LINALG_KERNELS_KERNELS_H_
#define CSRPLUS_LINALG_KERNELS_KERNELS_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

namespace csrplus {
namespace linalg {
namespace kernels {

enum class Isa : int { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };

/// Stable lowercase name ("portable", "avx2", "avx512"); matches the
/// CSRPLUS_KERNEL_ISA spelling.
const char* IsaName(Isa isa);

/// Parses an IsaName spelling. Returns false (out untouched) on unknown
/// names.
bool ParseIsaName(std::string_view name, Isa* out);

/// True when this binary carries a code path for `isa` (compiler supported
/// the -m flags at build time). Portable is always compiled.
bool IsaCompiled(Isa isa);

/// True when `isa` is compiled in AND the running CPU executes it.
bool IsaSupported(Isa isa);

/// All ISAs usable in this process, in ascending width order; always
/// contains kPortable.
std::vector<Isa> SupportedIsas();

/// The ISA the process-wide kernel tables currently dispatch to.
Isa ActiveIsa();

/// Swaps the process-wide kernel tables to `isa`. CHECK-fails unless
/// IsaSupported(isa). Emits csrplus.kernel.* dispatch metrics. Safe to call
/// concurrently with kernel use (atomic pointer swap); primarily a test and
/// benchmark hook — production picks once at startup.
void SetActiveIsa(Isa isa);

/// One function table per element type. All kernels are deterministic and
/// sequential per output element (see bit-identity contract above).
template <typename T>
struct KernelTable {
  /// c[j] += a * b[j] for j in [0, n). The GEMM/SpMM inner row update.
  void (*axpy_row)(T* c, const T* b, T a, int64_t n);
  /// x[j] *= a for j in [0, n).
  void (*scale)(T* x, T a, int64_t n);
  /// y[i] = sum_p a[i*lda + p] * x[p], p ascending, for i in [0, rows).
  /// The MatVec row-dot block.
  void (*dot_rows)(const T* a, int64_t lda, const T* x, T* y, int64_t rows,
                   int64_t k);
  /// dst[i*stride] = src[i] for i in [0, n). The cached-column scatter.
  void (*scatter)(T* dst, int64_t stride, const T* src, int64_t n);
};

/// The active double/float tables (never null).
const KernelTable<double>& F64();
const KernelTable<float>& F32();

/// Direct per-ISA table access for the differential test suite and the
/// micro-kernel bench. Returns nullptr when the ISA is not compiled in.
const KernelTable<double>* TableF64(Isa isa);
const KernelTable<float>* TableF32(Isa isa);

/// Blocked/tiled C += A * B driver on row-major buffers (C: rows x n,
/// A: rows x k, B: k x n), built on axpy_row. The k dimension is tiled for
/// L2 reuse of the B panel, but every C element still accumulates its k
/// products in ascending order, so the result is bitwise identical to the
/// naive triple loop. Callers zero (or pre-fill) C.
template <typename T>
inline void GemmNnTiled(const KernelTable<T>& kt, const T* a, int64_t lda,
                        const T* b, int64_t ldb, T* c, int64_t ldc,
                        int64_t rows, int64_t k, int64_t n) {
  constexpr int64_t kPanel = 128;  // k-tile: B panel of 128 rows stays in L2
  for (int64_t p0 = 0; p0 < k; p0 += kPanel) {
    const int64_t p1 = std::min(k, p0 + kPanel);
    for (int64_t i = 0; i < rows; ++i) {
      const T* arow = a + i * lda;
      T* crow = c + i * ldc;
      for (int64_t p = p0; p < p1; ++p) {
        kt.axpy_row(crow, b + p * ldb, arow[p], n);
      }
    }
  }
}

}  // namespace kernels
}  // namespace linalg
}  // namespace csrplus

#endif  // CSRPLUS_LINALG_KERNELS_KERNELS_H_
