#pragma once

#include <cstddef>
#include <cstdint>

#include "dsp/types.hpp"

namespace ecocap::dsp::kernels {

/// Runtime-dispatched SIMD kernel layer for the DSP/FDTD hot loops.
///
/// Every Monte-Carlo interrogation spends its time in a handful of inner
/// loops: FIR dot products, valid-mode template correlation, the resonator
/// biquad, the envelope detector's rectify+RC pass, and the elastic FDTD
/// stencil updates. This layer provides one implementation table per
/// instruction set (AVX2 on x86-64, and a canonical pragma-vectorizable
/// scalar table that every other host, AArch64 included, runs) and selects
/// one at startup from CPUID, overridable with the ECOCAP_SIMD environment
/// variable.
///
/// ## Determinism contract
///
/// Results must not depend on which table ran, so golden vectors stay valid
/// on any host:
///
///  * **Elementwise maps** (the FDTD velocity/stress stencils, rectify, the
///    carrier sine, the polar candidates and the polar scale) are computed
///    with exactly the scalar expression's operation order and no FMA
///    contraction — bit-identical across tables by construction. The sine
///    and the polar scale's log are fixed polynomials, not libm calls, so
///    no libm variant picked at run time from the CPU enters their bits.
///    The polar candidates keep the accepted pairs in order, so their
///    compaction is exact too.
///  * **Integer maps** (the MT19937-64 twist) are exact on every table.
///  * **Reductions** (dot, correlate) use a *canonical striped order*: eight
///    interleaved partial sums over index residues mod 8, combined as
///    t[k] = s[k] + s[k+4] then ((t0 + t1) + (t2 + t3)), with the remainder
///    added sequentially. The scalar table implements the identical order,
///    so scalar and SIMD agree bit-for-bit. This order differs from a naive
///    sequential sum; callers that migrate to it accept a one-time, golden-
///    regenerated drift and validate against a sequential reference under
///    the documented tolerance (see docs/benchmarks.md, "tolerance mode").
///  * **Recurrences**: the biquad runs in an M = 4 scattered look-ahead
///    form (an order-8 FIR prefilter and a denominator in z^-4 and z^-8
///    only), one fixed per-sample expression that the scalar table and
///    every SIMD lane evaluate alike, so it is bit-identical across tables
///    and block splits, and toleranced against the direct-form-I
///    recurrence it replaces. The one-pole low-pass and the envelope
///    detector use a canonical *block-scan* form (blocks of 4 with
///    precomputed decay powers) whose lane arithmetic is replicated
///    exactly by the scalar table — again bit-identical across tables, and
///    toleranced against the sequential RC recurrence.
///
/// ## Dispatch
///
/// `active()` resolves once (thread-safe) to the best table the CPU
/// supports. `ECOCAP_SIMD=scalar|avx2|auto` overrides; requesting an
/// unavailable or unrecognized ISA falls back to scalar with a stderr note
/// rather than crashing, so a pinned CI value is portable across runners.

enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
};

/// Human-readable table name ("scalar", "avx2").
const char* isa_name(Isa isa);

/// Words of MT19937-64 state (std::mt19937_64's n).
inline constexpr std::size_t kMtStateWords = 312;

/// A biquad (b0 + b1 z^-1 + b2 z^-2) / (1 + a1 z^-1 + a2 z^-2) in M = 4
/// scattered look-ahead form (Parhi & Messerschmitt, IEEE TASSP 1989): the
/// same transfer function with numerator and denominator multiplied by
/// D(-z) D2(-z), where D2(z^2) = D(z) D(-z), so that
///   y[n] = sum_{k=0..8} g[k] x[n-k] - a4 y[n-4] - a8 y[n-8].
/// Outputs four apart no longer depend on each other: four chains run side
/// by side. `biquad_lookahead` derives g, a4 and a8.
struct BiquadCoeffs {
  Real g[9];
  Real a4, a8;
};

/// Look-ahead form of the biquad with these (a0-normalized) coefficients.
BiquadCoeffs biquad_lookahead(Real b0, Real b1, Real b2, Real a1, Real a2);

/// Look-ahead biquad state: the last eight inputs and the last eight
/// outputs, oldest first (x[7] is x[n-1]).
struct BiquadState {
  Real x[8] = {};
  Real y[8] = {};
};

/// One row of the staggered-grid velocity update (Virieux P-SV). All
/// pointers address the row base (ix = 0); the kernel touches columns
/// [i0, i1) only. `fx`/`fy` are the pending body-force rows: when non-null
/// the kernel adds them to the stress gradients and zeroes the consumed
/// entries (folding the per-step force clear into this pass); when null the
/// force term is omitted entirely, which is bit-identical because the
/// velocity fields never hold negative zero (they start at +0 and IEEE-754
/// round-to-nearest addition cannot produce -0 from +0 operands).
struct FdtdVelocityRowArgs {
  Real* vx;
  Real* vy;
  const Real* sxx;     // row iy
  const Real* sxy;     // row iy
  const Real* sxy_dn;  // row iy-1
  const Real* syy;     // row iy
  const Real* syy_up;  // row iy+1
  const Real* rho;     // row iy
  Real* fx;            // row iy, nullable
  Real* fy;            // row iy, nullable
  std::size_t i0, i1;  // column range [i0, i1)
  Real dt;
  Real inv_dx;
};

/// One row of the stress update. Same row-base pointer convention.
struct FdtdStressRowArgs {
  Real* sxx;
  Real* syy;
  Real* sxy;
  const Real* vx;      // row iy
  const Real* vx_up;   // row iy+1
  const Real* vy;      // row iy
  const Real* vy_dn;   // row iy-1
  const Real* lambda;  // row iy
  const Real* mu;      // row iy
  std::size_t i0, i1;
  Real dt;
  Real inv_dx;
};

/// One implementation of every hot primitive. Function pointers so the
/// dispatch decision is one load; each pointed-to loop is branch-free over
/// the data.
struct KernelTable {
  Isa isa;

  /// Canonical striped dot product sum(a[i]*b[i]), i in [0, n).
  Real (*dot)(const Real* a, const Real* b, std::size_t n);

  /// Valid-mode correlation out[k] = dot(x + k, h, nh) for
  /// k in [0, nx - nh]; requires nx >= nh >= 1.
  void (*correlate_valid)(const Real* x, std::size_t nx, const Real* h,
                          std::size_t nh, Real* out);

  /// Look-ahead biquad over a buffer; `y` may equal `x` (the kernel keeps
  /// the input history itself). Every output is
  ///   f = ((g0*x0 + g1*x1) + (g2*x2 + g3*x3))
  ///       + ((g4*x4 + g5*x5) + (g6*x6 + g7*x7))
  ///   y = ((f + g8*x8) - a8*y8) - a4*y4
  /// with xk = x[n-k] and yk = y[n-k], so the result does not depend on the
  /// table or on how a stream is split into calls.
  void (*biquad)(const Real* x, Real* y, std::size_t n,
                 const BiquadCoeffs& c, BiquadState& s);

  /// One-pole RC low-pass y[i] = p*y[i-1] + alpha*u[i] in canonical
  /// block-scan form; `state` holds y[-1] and receives y[n-1].
  void (*onepole)(const Real* x, Real* y, std::size_t n, Real alpha,
                  Real* state);

  /// Envelope magnitude: the one-pole scan over |x[i]| (full-wave rectify
  /// fused into the load). Same state convention as onepole.
  void (*envelope)(const Real* x, Real* y, std::size_t n, Real alpha,
                   Real* state);

  /// FDTD stencil rows (pure elementwise maps — bit-identical everywhere).
  void (*fdtd_velocity_row)(const FdtdVelocityRowArgs& a);
  void (*fdtd_stress_row)(const FdtdStressRowArgs& a);

  /// Carrier synthesis, in place: x[i] = amplitude * sin(x[i]) for phases
  /// in [0, 2*pi). Cody–Waite reduction by pi/2 and the fdlibm sine/cosine
  /// polynomials, selected by quadrant; within 1 ulp of std::sin.
  void (*sine)(Real* x, std::size_t n, Real amplitude);

  /// MT19937-64 twist, in place over the kMtStateWords-word state:
  /// std::mt19937_64's next state block (integer only).
  void (*mt_twist)(std::uint64_t* state);

  /// Accepted Marsaglia-polar candidates from `pairs` pairs of untempered
  /// MT19937-64 state words (w[2j], w[2j+1]): each word is tempered and
  /// mapped to u in [0, 1) as std::generate_canonical<double, 53> maps one
  /// draw (including its nextafter(1, 0) clamp), then x = 2u - 1,
  /// y = 2v - 1 and r2 = x*x + y*y — libstdc++'s normal_distribution
  /// arithmetic, value for value. Pairs with 0 < r2 <= 1 are written in
  /// order to x, y, r2, with `pair` holding each one's index j; every array
  /// needs room for `pairs` entries. Returns the count accepted.
  std::size_t (*polar_candidates)(const std::uint64_t* w, std::size_t pairs,
                                  Real* x, Real* y, Real* r2,
                                  std::uint64_t* pair);

  /// Marsaglia-polar multiplier m[i] = sqrt(-2 * log(r2[i]) / r2[i]) for
  /// accepted radii 2^-106 <= r2[i] <= 1 (the smallest nonzero r2 the
  /// candidates give), in that operation order. The log is fdlibm's
  /// __ieee754_log polynomial in one branch-free expression without FMA
  /// (see kernels_detail.hpp); within 1 ulp of std::log, so m is within
  /// 1 ulp of the multiplier over std::log.
  void (*polar_scale)(Real* m, const Real* r2, std::size_t n);
};

/// The canonical scalar table (always available).
const KernelTable& scalar_table();

/// True when `isa`'s table exists in this build *and* the CPU can run it.
bool available(Isa isa);

/// Table for a specific ISA; falls back to scalar when unavailable.
const KernelTable& table(Isa isa);

/// The startup-dispatched table: ECOCAP_SIMD override when set, else the
/// best available ISA. Resolved once; stable for the process lifetime.
const KernelTable& active();

/// ISA of `active()`.
Isa active_isa();

/// Parse an ECOCAP_SIMD value ("scalar", "avx2", "auto"). Returns
/// true and writes `out` on a recognized name ("auto" reports the best
/// available ISA); false on anything else.
bool isa_from_name(const char* name, Isa& out);

}  // namespace ecocap::dsp::kernels
