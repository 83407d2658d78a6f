#ifndef KGPIP_NN_FASTMATH_H_
#define KGPIP_NN_FASTMATH_H_

#include <cmath>
#include <cstdint>
#include <cstring>

namespace kgpip::nn {

/// Branchless double-precision exp/sigmoid/tanh for the network's
/// activation functions.
///
/// The serve path applies activations over whole message/state panels,
/// and libm's scalar `tanh`/`exp` (~13 ns/call here) dominated decode
/// time — neither vectorizes, and their results are not reproducible by
/// any SIMD formulation. These replacements are straight-line
/// arithmetic (Cephes-style argument reduction + a degree-12 Taylor
/// polynomial, ~2 ulp on exp), so the compiler can vectorize the
/// decoder's batched loops while the autograd ops call the *same inline
/// functions* per element — keeping the tape and tape-free decode
/// byte-identical, which the gen equivalence suite enforces.
///
/// These define the model's activation semantics everywhere (training
/// and serving). Accuracy notes: FastExp ≈ 2 ulp relative over the
/// clamped range; FastTanh ≈ 1e-16 absolute (the (z-1)/(z+1) form loses
/// relative precision only below |x| ~ 1e-8 where tanh(x) ≈ x ≈ 0);
/// both are monotone to within rounding and never produce inf/nan for
/// finite input, so downstream softmax/sampling arithmetic stays
/// finite.

/// Argument-reduction and polynomial constants of FastExp, shared with
/// the intrinsic vector kernels (simd_kernels_impl.h) so the scalar and
/// SIMD formulations are one arithmetic expression evaluated at
/// different widths — any edit here changes both in lockstep, which is
/// what keeps them bit-identical.
namespace fastexp {
inline constexpr double kLog2e = 1.4426950408889634074;
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52
inline constexpr double kClamp = 708.0;
/// Degree-12 Taylor/Horner: leading coefficient, then the 12 addends
/// applied as p = p * r + kPoly[i].
inline constexpr double kPolyLead = 1.0 / 479001600.0;
inline constexpr double kPoly[12] = {
    1.0 / 39916800.0, 1.0 / 3628800.0, 1.0 / 362880.0, 1.0 / 40320.0,
    1.0 / 5040.0,     1.0 / 720.0,     1.0 / 120.0,    1.0 / 24.0,
    1.0 / 6.0,        1.0 / 2.0,       1.0,            1.0};
/// tanh's |x| clamp (tanh(20) already rounds to 1.0 in double).
inline constexpr double kTanhClamp = 20.0;
}  // namespace fastexp

/// exp(x) with the input clamped to [-708, 708] (keeps the 2^k scale a
/// normal double; exp(-708) ~ 3e-308 stands in for smaller results).
/// Requires round-to-nearest FP mode (the process default) — the
/// shifter trick below extracts round(x/ln2) without a branch or a
/// libm call.
inline double FastExp(double x) {
  x = x > fastexp::kClamp ? fastexp::kClamp : x;
  x = x < -fastexp::kClamp ? -fastexp::kClamp : x;
  // round(x * log2e) via the 2^52 shifter: adding kShift pushes the
  // fraction off the mantissa, subtracting it back leaves the rounded
  // integer as an exact double.
  const double t = x * fastexp::kLog2e + fastexp::kShift;
  const double kd = t - fastexp::kShift;
  // r = x - k*ln2 in split precision; |r| <= ln2/2, and kd*kLn2Hi is
  // exact (11-bit k times 21-significant-bit hi part).
  const double r = (x - kd * fastexp::kLn2Hi) - kd * fastexp::kLn2Lo;
  // exp(r) by degree-12 Taylor/Horner: the truncation term
  // r^13/13! < 2e-16 over the reduced range.
  double p = fastexp::kPolyLead;
  for (double c : fastexp::kPoly) p = p * r + c;
  // Scale by 2^k through the exponent bits; k is in [-1022, 1022] after
  // the clamp, so the biased exponent stays normal. `int` (not int64)
  // keeps the double->integer conversion SSE2-vectorizable.
  const int ki = static_cast<int>(kd);
  const std::uint64_t bits = static_cast<std::uint64_t>(ki + 1023) << 52;
  double s;
  std::memcpy(&s, &bits, sizeof(s));
  return p * s;
}

/// Logistic sigmoid 1 / (1 + exp(-x)).
inline double FastSigmoid(double x) { return 1.0 / (1.0 + FastExp(-x)); }

/// tanh(x) = sign(x) * (e^{2|x|} - 1) / (e^{2|x|} + 1), with |x| clamped
/// to 20 (tanh(20) already rounds to 1.0 in double).
inline double FastTanh(double x) {
  double ax = std::fabs(x);
  ax = ax > fastexp::kTanhClamp ? fastexp::kTanhClamp : ax;
  const double z = FastExp(2.0 * ax);
  const double t = (z - 1.0) / (z + 1.0);
  return std::copysign(t, x);
}

}  // namespace kgpip::nn

#endif  // KGPIP_NN_FASTMATH_H_
