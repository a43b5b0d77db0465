#pragma once

#include <cstddef>
#include <vector>

#include "wave/material.hpp"

namespace ecocap::core {
class ThreadPool;
}  // namespace ecocap::core

namespace ecocap::wave {

/// 2-D elastodynamic finite-difference time-domain solver (P-SV waves,
/// velocity-stress formulation on a staggered grid, Virieux 1986). This is
/// the numerical ground truth for the analytic wave layer: the Appendix-A
/// momentum equation (Eq. 6) discretized directly, with the P and S
/// velocities of Eqs. 8/10 emerging from the material's Lamé parameters
/// rather than being assumed.
///
/// Used by the validation bench and tests to confirm:
///  * body-wave speeds in every Table-1 concrete,
///  * near-total reflection at the concrete/air free surface (Eq. 1),
///  * P->S mode conversion at oblique interfaces (the prism physics).
class ElasticFdtd {
 public:
  struct Config {
    std::size_t nx = 300;   // grid cells in x
    std::size_t ny = 300;   // grid cells in y
    Real dx = 2.0e-3;       // m per cell
    /// Time step; <= 0 selects the CFL limit with a 0.9 safety factor.
    Real dt = 0.0;
    /// Thickness (cells) of the absorbing sponge on each edge; 0 = free
    /// surfaces everywhere (the concrete/air boundary).
    ///
    /// Boundary contract: the one-cell outer border is the free surface —
    /// its stresses stay zero (never updated) and its velocities are never
    /// stepped, so rows 0 and ny-1 and columns 0 and nx-1 hold no energy to
    /// damp and the sponge never applies there. The sponge ramp therefore
    /// covers only the *interior* cells of the absorbing band; its
    /// coefficients are computed for exactly the cells it touches.
    std::size_t sponge_cells = 0;
    Real sponge_strength = 0.015;  // per-step damping at the outer edge
    /// Pool that splits each update pass into row bands; nullptr selects
    /// ThreadPool::shared() (worker count from ECOCAP_THREADS /
    /// hardware_concurrency), and a one-worker pool steps serially. Every
    /// cell update is independent within a pass, so the fields are
    /// bit-identical at any worker count. Grids too small to amortize the
    /// fan-out run serially either way.
    core::ThreadPool* pool = nullptr;
  };

  /// Homogeneous medium.
  ElasticFdtd(const Material& medium, Config config);

  /// CFL-stable time step for this grid/medium.
  Real cfl_dt() const;
  Real dt() const { return dt_; }
  Real dx() const { return config_.dx; }
  std::size_t nx() const { return config_.nx; }
  std::size_t ny() const { return config_.ny; }

  /// Override the material in a rectangular region (layered media,
  /// inclusions). Call before stepping.
  void fill_region(std::size_t x0, std::size_t y0, std::size_t x1,
                   std::size_t y1, const Material& medium);

  /// Add a body-force impulse at a grid point for the *next* step.
  /// direction: 0 = x (shear-exciting when lateral), 1 = y.
  void add_force(std::size_t ix, std::size_t iy, int direction,
                 Real amplitude);

  /// Advance one time step.
  void step();

  /// Advance n steps, applying `source(t_index)` as a y-force at the given
  /// point each step (tone bursts etc.).
  void run(std::size_t steps, std::size_t src_x, std::size_t src_y,
           const std::vector<Real>& source_amplitudes, int direction = 1);

  /// Particle-velocity magnitude at a grid point.
  Real velocity_magnitude(std::size_t ix, std::size_t iy) const;
  Real vx(std::size_t ix, std::size_t iy) const { return vx_[idx(ix, iy)]; }
  Real vy(std::size_t ix, std::size_t iy) const { return vy_[idx(ix, iy)]; }

  /// Total kinetic + strain energy on the grid (conservation checks).
  Real total_energy() const;

  /// Divergence / curl of the velocity field at a point: P motion is
  /// irrotational (div), S motion is solenoidal (curl) — the Appendix-A
  /// Helmholtz split used to separate the modes numerically.
  Real divergence(std::size_t ix, std::size_t iy) const;
  Real curl(std::size_t ix, std::size_t iy) const;

  /// Sum of div^2 (P energy proxy) and curl^2 (S energy proxy) over a
  /// rectangular region.
  struct ModeEnergies {
    Real p = 0.0;
    Real s = 0.0;
  };
  ModeEnergies mode_energies(std::size_t x0, std::size_t y0, std::size_t x1,
                             std::size_t y1) const;

 private:
  std::size_t idx(std::size_t ix, std::size_t iy) const {
    return iy * config_.nx + ix;
  }
  void update_velocity_rows(std::size_t y0, std::size_t y1);
  void update_stress_rows(std::size_t y0, std::size_t y1);
  void apply_sponge_rows(std::size_t y0, std::size_t y1);
  /// Run fn over interior row bands [y0, y1), in parallel when the grid is
  /// big enough to amortize the pool fan-out.
  template <typename Fn>
  void for_row_bands(const Fn& fn);

  Config config_;
  Real dt_ = 0.0;
  Real max_cp_ = 0.0;
  // Material maps.
  std::vector<Real> rho_, lambda_, mu_;
  // Fields (staggered in space; stored on the same index grid).
  std::vector<Real> vx_, vy_, sxx_, syy_, sxy_;
  std::vector<Real> pending_fx_, pending_fy_;
  /// True between add_force() and the next velocity pass. When clear, the
  /// velocity kernels skip the force arrays entirely — no per-step
  /// full-grid clears of pending_fx_/pending_fy_ (the kernels zero the
  /// entries they consume when the flag is set).
  bool forces_pending_ = false;
  std::vector<Real> sponge_;
};

}  // namespace ecocap::wave
