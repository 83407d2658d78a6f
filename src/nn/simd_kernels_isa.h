#ifndef KGPIP_NN_SIMD_KERNELS_ISA_H_
#define KGPIP_NN_SIMD_KERNELS_ISA_H_

// Internal: entry points of the per-ISA kernel translation units.
// Declared unconditionally (harmless on non-x86); DEFINED only when the
// build adds the matching TU, and called only behind the dispatcher's
// KGPIP_SIMD_HAVE_* guards + runtime CPUID check (see simd_kernels.cc).

#include <cstddef>
#include <cstdint>

#include "nn/simd_kernels.h"

namespace kgpip::nn::simd::detail {

void GemmAvx2(const double* a, const double* b, double* c, size_t rows,
              size_t ac, size_t bc);
void BiasAvx2(double* c, const double* bias, size_t rows, size_t cols);
void GemmTNAccumAvx2(const double* x, const double* g, double* dw, size_t n,
                     size_t in, size_t out);
void GemmNTAccumAvx2(const double* g, const double* wt, double* dx, size_t n,
                     size_t out, size_t in);
double SumSquaresAvx2(const double* const* srcs, size_t count, double* out,
                      size_t n, double norm_sq);
void AdamUpdateAvx2(const AdamCoeffs& c, const double* grad, double* value,
                    double* m, double* v, size_t n);
void SigmoidAvx2(double* d, size_t n);
void TanhAvx2(double* d, size_t n);
void AddSigmoidAvx2(const double* a, const double* b, double* out, size_t n);
void AddTanhAvx2(const double* a, const double* b, double* out, size_t n);
void MulAvx2(const double* a, const double* b, double* out, size_t n);
void GruCombineAvx2(const double* z, const double* n, const double* h,
                    double* out, size_t count);

void GemmAvx512(const double* a, const double* b, double* c, size_t rows,
                size_t ac, size_t bc);
void BiasAvx512(double* c, const double* bias, size_t rows, size_t cols);
void GemmTNAccumAvx512(const double* x, const double* g, double* dw, size_t n,
                       size_t in, size_t out);
void GemmNTAccumAvx512(const double* g, const double* wt, double* dx, size_t n,
                       size_t out, size_t in);
double SumSquaresAvx512(const double* const* srcs, size_t count, double* out,
                        size_t n, double norm_sq);
void AdamUpdateAvx512(const AdamCoeffs& c, const double* grad,
                      double* value, double* m, double* v, size_t n);
void SigmoidAvx512(double* d, size_t n);
void TanhAvx512(double* d, size_t n);
void AddSigmoidAvx512(const double* a, const double* b, double* out, size_t n);
void AddTanhAvx512(const double* a, const double* b, double* out, size_t n);
void MulAvx512(const double* a, const double* b, double* out, size_t n);
void GruCombineAvx512(const double* z, const double* n, const double* h,
                      double* out, size_t count);

}  // namespace kgpip::nn::simd::detail

#endif  // KGPIP_NN_SIMD_KERNELS_ISA_H_
