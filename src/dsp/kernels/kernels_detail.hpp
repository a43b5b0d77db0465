#pragma once

// Internal declarations shared between the kernel dispatch unit and the
// per-ISA translation units. Not part of the public kernels.hpp API.
//
// Each ISA's functions live in their own TU so only that TU is compiled
// with the matching -m flags; the dispatcher never calls into a table whose
// ISA the CPU lacks, so no illegal instruction can execute before the CPUID
// check. All kernel TUs are built with -ffp-contract=off so no compiler may
// fuse a multiply-add and break the cross-table bit-identity contract.

#include <cstdint>

#include "dsp/kernels/kernels.hpp"

namespace ecocap::dsp::kernels::detail {

/// Constants of the `sine` kernel, shared so every table evaluates the same
/// expression. The phase is reduced as r = (x - q*kPio2Hi) - q*kPio2Lo with
/// q = round(x * 2/pi): kPio2Hi (the double nearest pi/2) ends in three zero
/// bits, so q*kPio2Hi is exact for q <= 4 and, by Sterbenz, so is the first
/// subtraction. q is read from the low mantissa bits of
/// x * 2/pi + kRoundShift. The polynomials are fdlibm's __kernel_sin
/// (degree 13) and __kernel_cos (degree 14).
namespace sine_coeffs {
inline constexpr Real kInvPio2 = 0x1.45f306dc9c883p-1;
inline constexpr Real kRoundShift = 0x1.8p52;
inline constexpr Real kPio2Hi = 0x1.921fb54442d18p+0;
inline constexpr Real kPio2Lo = 0x1.1a62633145c07p-54;
inline constexpr Real kS1 = -0x1.5555555555549p-3;
inline constexpr Real kS2 = 0x1.111111110f8a6p-7;
inline constexpr Real kS3 = -0x1.a01a019c161d5p-13;
inline constexpr Real kS4 = 0x1.71de357b1fe7dp-19;
inline constexpr Real kS5 = -0x1.ae5e68a2b9cebp-26;
inline constexpr Real kS6 = 0x1.5d93a5acfd57cp-33;
inline constexpr Real kC1 = 0x1.555555555554cp-5;
inline constexpr Real kC2 = -0x1.6c16c16c15177p-10;
inline constexpr Real kC3 = 0x1.a01a019cb1590p-16;
inline constexpr Real kC4 = -0x1.27e4f809c52adp-22;
inline constexpr Real kC5 = 0x1.1ee9ebdb4b1c4p-29;
inline constexpr Real kC6 = -0x1.8fae9be8838d4p-37;
}  // namespace sine_coeffs

/// Constants of the `polar_scale` kernel's natural log, fdlibm's
/// __ieee754_log: r2 = 2^k * x with x in [sqrt(2)/2, sqrt(2)), f = x - 1,
/// s = f / (2 + f), R the Lg1..Lg7 polynomial in s^2, and
///   log(r2) = k*kLn2Hi - ((hfsq - (s*(hfsq + R) + k*kLn2Lo)) - f)
/// with hfsq = 0.5*f*f. kLn2Hi ends in 21 zero bits, so k*kLn2Hi is exact.
/// fdlibm switches to shorter algebraic forms of the same quantity for
/// |f| < 2^-20 and away from the reduction's edges; the kernel takes this
/// one form for every input, so its lanes need no branch, and stays
/// within 1 ulp of std::log (test_dsp_kernels).
namespace log_coeffs {
inline constexpr Real kLn2Hi = 0x1.62e42feep-1;
inline constexpr Real kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr Real kLg1 = 0x1.5555555555593p-1;
inline constexpr Real kLg2 = 0x1.999999997fa04p-2;
inline constexpr Real kLg3 = 0x1.2492494229359p-2;
inline constexpr Real kLg4 = 0x1.c71c51d8e78afp-3;
inline constexpr Real kLg5 = 0x1.7466496cb03dep-3;
inline constexpr Real kLg6 = 0x1.39a09d078c69fp-3;
inline constexpr Real kLg7 = 0x1.2f112df3e5244p-3;
/// In the high word's 20 mantissa bits: adding kHalfUp carries into bit
/// 20 exactly when the mantissa is at least sqrt(2), and then x is r2's
/// mantissa halved (k one larger).
inline constexpr std::uint64_t kHalfUp = 0x95f64;
}  // namespace log_coeffs

/// MT19937-64's twist parameters (std::mt19937_64's m, a and the 31-bit
/// lower mask), shared by every table's `mt_twist`.
namespace mt_params {
inline constexpr std::size_t kN = kMtStateWords;
inline constexpr std::size_t kM = 156;
inline constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
inline constexpr std::uint64_t kLower = ~kUpper;
inline constexpr std::uint64_t kA = 0xb5026f5aa96619e9ULL;

/// One word of the twist. -(y & 1) is all ones for odd y: the matrix term
/// without a branch on a random bit.
inline std::uint64_t mix(std::uint64_t hi, std::uint64_t lo,
                         std::uint64_t far) {
  const std::uint64_t y = (hi & kUpper) | (lo & kLower);
  return far ^ (y >> 1) ^ (-(y & 1) & kA);
}
}  // namespace mt_params

namespace scalar {
Real dot(const Real* a, const Real* b, std::size_t n);
void correlate_valid(const Real* x, std::size_t nx, const Real* h,
                     std::size_t nh, Real* out);
void biquad(const Real* x, Real* y, std::size_t n, const BiquadCoeffs& c,
            BiquadState& s);
void onepole(const Real* x, Real* y, std::size_t n, Real alpha, Real* state);
void envelope(const Real* x, Real* y, std::size_t n, Real alpha, Real* state);
void fdtd_velocity_row(const FdtdVelocityRowArgs& a);
void fdtd_stress_row(const FdtdStressRowArgs& a);
void sine(Real* x, std::size_t n, Real amplitude);
void mt_twist(std::uint64_t* state);
std::size_t polar_candidates(const std::uint64_t* w, std::size_t pairs,
                             Real* x, Real* y, Real* r2, std::uint64_t* pair);
void polar_scale(Real* m, const Real* r2, std::size_t n);
/// The `polar_scale` kernel's log of a normal r2 > 0: the scalar spelling
/// of the expression every table's lanes evaluate.
Real polar_log(Real r2);
}  // namespace scalar

#if defined(__x86_64__) || defined(__i386__)
namespace avx2 {
Real dot(const Real* a, const Real* b, std::size_t n);
void correlate_valid(const Real* x, std::size_t nx, const Real* h,
                     std::size_t nh, Real* out);
void biquad(const Real* x, Real* y, std::size_t n, const BiquadCoeffs& c,
            BiquadState& s);
void onepole(const Real* x, Real* y, std::size_t n, Real alpha, Real* state);
void envelope(const Real* x, Real* y, std::size_t n, Real alpha, Real* state);
void fdtd_velocity_row(const FdtdVelocityRowArgs& a);
void fdtd_stress_row(const FdtdStressRowArgs& a);
void sine(Real* x, std::size_t n, Real amplitude);
void mt_twist(std::uint64_t* state);
std::size_t polar_candidates(const std::uint64_t* w, std::size_t pairs,
                             Real* x, Real* y, Real* r2, std::uint64_t* pair);
void polar_scale(Real* m, const Real* r2, std::size_t n);
}  // namespace avx2
#endif

}  // namespace ecocap::dsp::kernels::detail
