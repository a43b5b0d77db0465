#include "wave/fdtd.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/thread_pool.hpp"
#include "dsp/kernels/kernels.hpp"

namespace ecocap::wave {

ElasticFdtd::ElasticFdtd(const Material& medium, Config config)
    : config_(config) {
  if (config_.nx < 8 || config_.ny < 8 || config_.dx <= 0.0) {
    throw std::invalid_argument("ElasticFdtd: invalid grid");
  }
  const std::size_t n = config_.nx * config_.ny;
  const LameParameters lame = medium.lame_from_velocities();
  rho_.assign(n, medium.density);
  lambda_.assign(n, lame.lambda);
  mu_.assign(n, lame.mu);
  vx_.assign(n, 0.0);
  vy_.assign(n, 0.0);
  sxx_.assign(n, 0.0);
  syy_.assign(n, 0.0);
  sxy_.assign(n, 0.0);
  pending_fx_.assign(n, 0.0);
  pending_fy_.assign(n, 0.0);
  max_cp_ = medium.cp;

  dt_ = (config_.dt > 0.0) ? config_.dt : cfl_dt();
  if (dt_ > cfl_dt() * 1.0001) {
    throw std::invalid_argument("ElasticFdtd: dt violates the CFL limit");
  }

  // Sponge profile: quadratic ramp from the inner edge of the absorbing
  // band to the boundary. Rows 0 and ny-1 are the free surface (see the
  // Config::sponge_cells contract) — the sponge pass never visits them, so
  // no coefficients are computed there.
  sponge_.assign(n, 1.0);
  if (config_.sponge_cells > 0) {
    const auto sc = static_cast<Real>(config_.sponge_cells);
    for (std::size_t iy = 1; iy + 1 < config_.ny; ++iy) {
      for (std::size_t ix = 0; ix < config_.nx; ++ix) {
        const Real dx_edge = static_cast<Real>(
            std::min({ix, iy, config_.nx - 1 - ix, config_.ny - 1 - iy}));
        if (dx_edge < sc) {
          const Real u = (sc - dx_edge) / sc;
          sponge_[idx(ix, iy)] = 1.0 - config_.sponge_strength * u * u;
        }
      }
    }
  }
}

Real ElasticFdtd::cfl_dt() const {
  // 2-D staggered-grid stability: dt <= dx / (sqrt(2) c_p,max).
  return 0.9 * config_.dx / (std::sqrt(2.0) * max_cp_);
}

void ElasticFdtd::fill_region(std::size_t x0, std::size_t y0, std::size_t x1,
                              std::size_t y1, const Material& medium) {
  const LameParameters lame = medium.lame_from_velocities();
  max_cp_ = std::max(max_cp_, medium.cp);
  if (dt_ > cfl_dt() * 1.0001) {
    throw std::invalid_argument(
        "ElasticFdtd: region material breaks the CFL limit");
  }
  for (std::size_t iy = y0; iy <= y1 && iy < config_.ny; ++iy) {
    for (std::size_t ix = x0; ix <= x1 && ix < config_.nx; ++ix) {
      rho_[idx(ix, iy)] = medium.density;
      lambda_[idx(ix, iy)] = lame.lambda;
      mu_[idx(ix, iy)] = lame.mu;
    }
  }
}

void ElasticFdtd::add_force(std::size_t ix, std::size_t iy, int direction,
                            Real amplitude) {
  if (ix >= config_.nx || iy >= config_.ny) {
    throw std::out_of_range("ElasticFdtd::add_force: point off grid");
  }
  if (direction == 0) {
    pending_fx_[idx(ix, iy)] += amplitude;
  } else {
    pending_fy_[idx(ix, iy)] += amplitude;
  }
  forces_pending_ = true;
}

namespace {

/// Column-tile width for cache blocking. A velocity or stress row touches
/// ~9 double arrays, so 2048 columns keep one tile's working set (~150 KB
/// per row pair) inside a typical 0.5-1 MB L2 slice while the tile walks
/// down its row band; grids up to nx ~ 2048 use a single tile and the loop
/// degenerates to plain rows.
constexpr std::size_t kColTile = 2048;

}  // namespace

void ElasticFdtd::update_velocity_rows(std::size_t y0, std::size_t y1) {
  const std::size_t nx = config_.nx;
  const Real inv_dx = 1.0 / config_.dx;
  const auto& kern = *dsp::kernels::active().fdtd_velocity_row;
  const bool consume = forces_pending_;
  for (std::size_t x0 = 1; x0 + 1 < nx; x0 += kColTile) {
    const std::size_t x1 = std::min(x0 + kColTile, nx - 1);
    for (std::size_t iy = y0; iy < y1; ++iy) {
      const std::size_t row = idx(0, iy);
      dsp::kernels::FdtdVelocityRowArgs a{};
      a.vx = vx_.data() + row;
      a.vy = vy_.data() + row;
      a.sxx = sxx_.data() + row;
      a.sxy = sxy_.data() + row;
      a.sxy_dn = sxy_.data() + idx(0, iy - 1);
      a.syy = syy_.data() + row;
      a.syy_up = syy_.data() + idx(0, iy + 1);
      a.rho = rho_.data() + row;
      a.fx = consume ? pending_fx_.data() + row : nullptr;
      a.fy = consume ? pending_fy_.data() + row : nullptr;
      a.i0 = x0;
      a.i1 = x1;
      a.dt = dt_;
      a.inv_dx = inv_dx;
      kern(a);
    }
  }
}

void ElasticFdtd::update_stress_rows(std::size_t y0, std::size_t y1) {
  const std::size_t nx = config_.nx;
  const Real inv_dx = 1.0 / config_.dx;
  const auto& kern = *dsp::kernels::active().fdtd_stress_row;
  for (std::size_t x0 = 1; x0 + 1 < nx; x0 += kColTile) {
    const std::size_t x1 = std::min(x0 + kColTile, nx - 1);
    for (std::size_t iy = y0; iy < y1; ++iy) {
      const std::size_t row = idx(0, iy);
      dsp::kernels::FdtdStressRowArgs a{};
      a.sxx = sxx_.data() + row;
      a.syy = syy_.data() + row;
      a.sxy = sxy_.data() + row;
      a.vx = vx_.data() + row;
      a.vx_up = vx_.data() + idx(0, iy + 1);
      a.vy = vy_.data() + row;
      a.vy_dn = vy_.data() + idx(0, iy - 1);
      a.lambda = lambda_.data() + row;
      a.mu = mu_.data() + row;
      a.i0 = x0;
      a.i1 = x1;
      a.dt = dt_;
      a.inv_dx = inv_dx;
      kern(a);
    }
  }
}

void ElasticFdtd::apply_sponge_rows(std::size_t y0, std::size_t y1) {
  for (std::size_t i = idx(0, y0); i < idx(0, y1); ++i) {
    const Real g = sponge_[i];
    if (g < 1.0) {
      vx_[i] *= g;
      vy_[i] *= g;
      sxx_[i] *= g;
      syy_[i] *= g;
      sxy_[i] *= g;
    }
  }
}

template <typename Fn>
void ElasticFdtd::for_row_bands(const Fn& fn) {
  const std::size_t rows = config_.ny - 2;  // interior rows [1, ny-1)
  core::ThreadPool* pool =
      config_.pool ? config_.pool : &core::ThreadPool::shared();
  // Each pass reads one field set and writes the other, so rows within a
  // pass are independent; parallel_for's join is the halo barrier between
  // the velocity and stress passes. Small grids stay serial — the pool
  // fan-out costs more than the arithmetic it would split.
  const bool go_parallel = pool->size() > 1 &&
                           rows >= 2 * pool->size() &&
                           rows * config_.nx >= 8192;
  if (!go_parallel) {
    fn(1, config_.ny - 1);
    return;
  }
  // Coarse bands: two per worker. The SIMD row kernels make each row cheap
  // enough that finer bands spend more time in the claim counter than in
  // the stencil; two per worker still lets the dynamic scheduler absorb a
  // preempted thread. The band boundaries depend only on the worker count,
  // so the same band covers the same rows every step (persistent partition
  // — each worker's bands tend to stay hot in its cache) and the split
  // never affects results (every cell update within a pass is independent).
  const std::size_t bands =
      std::min<std::size_t>(rows, static_cast<std::size_t>(pool->size()) * 2);
  pool->parallel_for(bands, [&](std::size_t b) {
    const std::size_t y0 = 1 + b * rows / bands;
    const std::size_t y1 = 1 + (b + 1) * rows / bands;
    fn(y0, y1);
  });
}

void ElasticFdtd::step() {
  // 1. Update velocities from stress gradients (+ pending body forces).
  //    When forces are pending, the velocity kernels consume and zero the
  //    pending entries they read, folding the old per-step full-grid
  //    std::fill clears into the pass itself. The kernels only visit
  //    interior cells, so any force placed on the one-cell border (which
  //    the seed silently dropped via the full clear) is cleared here to
  //    keep that behaviour.
  for_row_bands([this](std::size_t y0, std::size_t y1) {
    update_velocity_rows(y0, y1);
  });
  if (forces_pending_) {
    const std::size_t nx = config_.nx;
    const std::size_t ny = config_.ny;
    auto clear_cell = [&](std::size_t i) {
      pending_fx_[i] = 0.0;
      pending_fy_[i] = 0.0;
    };
    for (std::size_t ix = 0; ix < nx; ++ix) {
      clear_cell(idx(ix, 0));
      clear_cell(idx(ix, ny - 1));
    }
    for (std::size_t iy = 1; iy + 1 < ny; ++iy) {
      clear_cell(idx(0, iy));
      clear_cell(idx(nx - 1, iy));
    }
    forces_pending_ = false;
  }

  // 2. Update stresses from velocity gradients.
  for_row_bands([this](std::size_t y0, std::size_t y1) {
    update_stress_rows(y0, y1);
  });

  // 3. Free surfaces at the grid edges: the one-cell border keeps zero
  //    stress (never updated), which reflects nearly all energy — the
  //    concrete/air boundary of Eq. 1. The optional sponge absorbs instead.
  if (config_.sponge_cells > 0) {
    for_row_bands([this](std::size_t y0, std::size_t y1) {
      apply_sponge_rows(y0, y1);
    });
  }
}

void ElasticFdtd::run(std::size_t steps, std::size_t src_x, std::size_t src_y,
                      const std::vector<Real>& source_amplitudes,
                      int direction) {
  for (std::size_t t = 0; t < steps; ++t) {
    if (t < source_amplitudes.size()) {
      add_force(src_x, src_y, direction, source_amplitudes[t]);
    }
    step();
  }
}

Real ElasticFdtd::velocity_magnitude(std::size_t ix, std::size_t iy) const {
  const std::size_t i = idx(ix, iy);
  return std::hypot(vx_[i], vy_[i]);
}

Real ElasticFdtd::total_energy() const {
  Real e = 0.0;
  for (std::size_t i = 0; i < vx_.size(); ++i) {
    // Kinetic part plus an elastic proxy (exact strain energy needs the
    // compliance tensor; this tracks conservation well enough for tests).
    e += 0.5 * rho_[i] * (vx_[i] * vx_[i] + vy_[i] * vy_[i]);
    const Real m = std::max(mu_[i], 1e-9);
    const Real l2m = std::max(lambda_[i] + 2.0 * mu_[i], 1e-9);
    e += 0.5 * (sxx_[i] * sxx_[i] + syy_[i] * syy_[i]) / l2m +
         0.5 * sxy_[i] * sxy_[i] / m;
  }
  return e;
}

Real ElasticFdtd::divergence(std::size_t ix, std::size_t iy) const {
  if (ix == 0 || iy == 0 || ix + 1 >= config_.nx || iy + 1 >= config_.ny) {
    return 0.0;
  }
  const Real inv_dx = 1.0 / config_.dx;
  return (vx_[idx(ix + 1, iy)] - vx_[idx(ix - 1, iy)] +
          vy_[idx(ix, iy + 1)] - vy_[idx(ix, iy - 1)]) *
         0.5 * inv_dx;
}

Real ElasticFdtd::curl(std::size_t ix, std::size_t iy) const {
  if (ix == 0 || iy == 0 || ix + 1 >= config_.nx || iy + 1 >= config_.ny) {
    return 0.0;
  }
  const Real inv_dx = 1.0 / config_.dx;
  return (vy_[idx(ix + 1, iy)] - vy_[idx(ix - 1, iy)] -
          (vx_[idx(ix, iy + 1)] - vx_[idx(ix, iy - 1)])) *
         0.5 * inv_dx;
}

ElasticFdtd::ModeEnergies ElasticFdtd::mode_energies(std::size_t x0,
                                                     std::size_t y0,
                                                     std::size_t x1,
                                                     std::size_t y1) const {
  ModeEnergies e;
  for (std::size_t iy = y0; iy <= y1 && iy < config_.ny; ++iy) {
    for (std::size_t ix = x0; ix <= x1 && ix < config_.nx; ++ix) {
      const Real d = divergence(ix, iy);
      const Real c = curl(ix, iy);
      e.p += d * d;
      e.s += c * c;
    }
  }
  return e;
}

}  // namespace ecocap::wave
