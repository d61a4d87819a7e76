// Internal: per-ISA table constructors, one pair per translation unit.
//
// Each ISA lives in its own .cc compiled with exactly the -m flags that ISA
// needs (and -ffp-contract=off — see kernels.h's bit-identity contract), so
// the rest of the library never executes an instruction the CPU might lack.
// Accessors return nullptr when the build lacked compiler support, which is
// how kernels.cc learns what IsaCompiled() should say.

#ifndef CSRPLUS_LINALG_KERNELS_KERNELS_ISA_H_
#define CSRPLUS_LINALG_KERNELS_KERNELS_ISA_H_

#include <cmath>

#include "linalg/kernels/kernels.h"

#if defined(__AVX__)
#include <immintrin.h>
#endif

namespace csrplus {
namespace linalg {
namespace kernels {
namespace internal {

// x + y and x * y with the NaN result pinned: when both operands are NaN
// the result carries x's payload. That is the rule x86 applies to an
// instruction's first source. A plain `x + y` leaves operand order to the
// compiler, which picks differently at -O0 and -O2 (at -O2 it commutes to
// fold a load), so the NaN would depend on the optimisation level. Every
// kernel passes the product first to an add and the broadcast scalar (or
// gathered row) first to a multiply, so the operand streamed from memory is
// always y. The portable loops use this generic form; `x + x` quiets a
// signaling x like the hardware does.
template <typename T>
inline T AddPinned(T x, T y) {
  return std::isnan(x) ? x + x : x + y;
}
template <typename T>
inline T MulPinned(T x, T y) {
  return std::isnan(x) ? x * x : x * y;
}

// The SIMD translation units get the same rule as one VEX instruction per
// operation, scalar (tails) and vector (main loops). y may stay in memory,
// so a load still folds into the instruction as it did before pinning.
#define CSRPLUS_PINNED_OP(name, type, insn)                    \
  inline type name(type x, type y) {                           \
    type r;                                                    \
    asm(insn " %2, %1, %0" : "=v"(r) : "v"(x), "vm"(y));       \
    return r;                                                  \
  }
#if defined(__AVX__)
CSRPLUS_PINNED_OP(AddPinned, double, "vaddsd")
CSRPLUS_PINNED_OP(MulPinned, double, "vmulsd")
CSRPLUS_PINNED_OP(AddPinned, float, "vaddss")
CSRPLUS_PINNED_OP(MulPinned, float, "vmulss")
CSRPLUS_PINNED_OP(AddPinned, __m256d, "vaddpd")
CSRPLUS_PINNED_OP(MulPinned, __m256d, "vmulpd")
CSRPLUS_PINNED_OP(AddPinned, __m256, "vaddps")
CSRPLUS_PINNED_OP(MulPinned, __m256, "vmulps")
#endif
#if defined(__AVX512F__)
CSRPLUS_PINNED_OP(AddPinned, __m512d, "vaddpd")
CSRPLUS_PINNED_OP(MulPinned, __m512d, "vmulpd")
CSRPLUS_PINNED_OP(AddPinned, __m512, "vaddps")
CSRPLUS_PINNED_OP(MulPinned, __m512, "vmulps")
#endif
#undef CSRPLUS_PINNED_OP

// kernels_portable.cc — always non-null.
const KernelTable<double>* PortableF64();
const KernelTable<float>* PortableF32();

// kernels_avx2.cc — null unless built with CSRPLUS_HAVE_AVX2.
const KernelTable<double>* Avx2F64();
const KernelTable<float>* Avx2F32();

// kernels_avx512.cc — null unless built with CSRPLUS_HAVE_AVX512.
const KernelTable<double>* Avx512F64();
const KernelTable<float>* Avx512F32();

}  // namespace internal
}  // namespace kernels
}  // namespace linalg
}  // namespace csrplus

#endif  // CSRPLUS_LINALG_KERNELS_KERNELS_ISA_H_
