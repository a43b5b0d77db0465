// Runtime dispatch for the SIMD kernel layer. One table per ISA is linked
// in (per-TU -m flags, see CMakeLists.txt); this unit picks the active one
// once at first use from CPUID, with ECOCAP_SIMD as the override knob. No
// SIMD instruction can execute before the CPU check: the per-ISA functions
// live in their own translation units and are only reached through the
// table pointers resolved here.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "dsp/kernels/kernels_detail.hpp"

namespace ecocap::dsp::kernels {

namespace detail {
namespace {

const KernelTable kScalarTable = {
    Isa::kScalar,        scalar::dot,
    scalar::correlate_valid, scalar::biquad,
    scalar::onepole,     scalar::envelope,
    scalar::fdtd_velocity_row, scalar::fdtd_stress_row,
    scalar::sine,        scalar::mt_twist,
    scalar::polar_candidates, scalar::polar_scale,
};

#if defined(ECOCAP_KERNELS_AVX2)
const KernelTable kAvx2Table = {
    Isa::kAvx2,        avx2::dot,
    avx2::correlate_valid, avx2::biquad,
    avx2::onepole,     avx2::envelope,
    avx2::fdtd_velocity_row, avx2::fdtd_stress_row,
    avx2::sine,        avx2::mt_twist,
    avx2::polar_candidates, avx2::polar_scale,
};
#endif

/// Best table this build + CPU combination can run.
Isa best_isa() {
#if defined(ECOCAP_KERNELS_AVX2)
  if (available(Isa::kAvx2)) return Isa::kAvx2;
#endif
  return Isa::kScalar;
}

/// Resolve the startup table: ECOCAP_SIMD when set and valid, else the best
/// available ISA. Unavailable or unrecognized requests fall back to scalar
/// with a stderr note so a pinned CI value stays portable across runners.
const KernelTable* resolve_active() {
  if (const char* env = std::getenv("ECOCAP_SIMD")) {
    Isa want;
    if (!isa_from_name(env, want)) {
      std::fprintf(stderr,
                   "ecocap: unrecognized ECOCAP_SIMD=\"%s\" "
                   "(scalar|avx2|auto); using scalar kernels\n",
                   env);
      return &kScalarTable;
    }
    if (!available(want)) {
      std::fprintf(stderr,
                   "ecocap: ECOCAP_SIMD=%s unavailable on this build/CPU; "
                   "using scalar kernels\n",
                   isa_name(want));
      return &kScalarTable;
    }
    return &table(want);
  }
  return &table(best_isa());
}

}  // namespace
}  // namespace detail

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

BiquadCoeffs biquad_lookahead(Real b0, Real b1, Real b2, Real a1, Real a2) {
  // D(z) D(-z) = 1 + e1 z^-2 + e2 z^-4 =: D2(z^2), and D2(v) D2(-v) has
  // only even powers of v = z^-2. So P(z) = D(-z) D2(-z^2) turns the
  // denominator into 1 + a4 z^-4 + a8 z^-8, and the numerator into N P.
  const Real e1 = 2.0 * a2 - a1 * a1;
  const Real e2 = a2 * a2;
  const Real d[3] = {1.0, -a1, a2};
  const Real q[5] = {1.0, 0.0, -e1, 0.0, e2};
  Real p[7] = {};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 5; ++j) p[i + j] += d[i] * q[j];
  }
  const Real b[3] = {b0, b1, b2};
  BiquadCoeffs c{};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 7; ++j) c.g[i + j] += b[i] * p[j];
  }
  c.a4 = 2.0 * e2 - e1 * e1;
  c.a8 = e2 * e2;
  return c;
}

const KernelTable& scalar_table() { return detail::kScalarTable; }

bool available(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(ECOCAP_KERNELS_AVX2) && (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

const KernelTable& table(Isa isa) {
  switch (isa) {
#if defined(ECOCAP_KERNELS_AVX2)
    case Isa::kAvx2:
      if (available(Isa::kAvx2)) return detail::kAvx2Table;
      break;
#endif
    default:
      break;
  }
  return detail::kScalarTable;
}

const KernelTable& active() {
  // Magic-static init is thread-safe; the decision is made exactly once.
  static const KernelTable* resolved = detail::resolve_active();
  return *resolved;
}

Isa active_isa() { return active().isa; }

bool isa_from_name(const char* name, Isa& out) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    out = Isa::kScalar;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    out = Isa::kAvx2;
    return true;
  }
  if (std::strcmp(name, "auto") == 0) {
    out = detail::best_isa();
    return true;
  }
  return false;
}

}  // namespace ecocap::dsp::kernels
