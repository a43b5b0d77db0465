#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/thread_pool.hpp"
#include "wave/fdtd.hpp"

namespace ecocap::wave {
namespace {

/// Ricker wavelet source (standard FDTD excitation).
std::vector<Real> ricker(Real f0, Real dt, std::size_t n) {
  std::vector<Real> w(n);
  const Real t0 = 1.5 / f0;
  for (std::size_t i = 0; i < n; ++i) {
    const Real t = static_cast<Real>(i) * dt - t0;
    const Real a = 3.14159265358979 * f0 * t;
    w[i] = (1.0 - 2.0 * a * a) * std::exp(-a * a);
  }
  return w;
}

/// First-arrival time at a receiver: index where the velocity magnitude
/// first exceeds `frac` of the run's maximum.
struct ArrivalProbe {
  std::vector<Real> record;
  Real first_arrival(Real dt, Real frac = 0.2) const {
    Real peak = 0.0;
    for (Real v : record) peak = std::max(peak, v);
    for (std::size_t i = 0; i < record.size(); ++i) {
      if (record[i] > frac * peak) return static_cast<Real>(i) * dt;
    }
    return -1.0;
  }
};

const Material kMedium = materials::reference_concrete();

TEST(Fdtd, CflLimitEnforced) {
  ElasticFdtd::Config cfg;
  cfg.nx = 32;
  cfg.ny = 32;
  cfg.dt = 1.0;  // absurdly large
  EXPECT_THROW(ElasticFdtd(kMedium, cfg), std::invalid_argument);
  cfg.dt = 0.0;
  ElasticFdtd ok(kMedium, cfg);
  EXPECT_GT(ok.dt(), 0.0);
  EXPECT_LE(ok.dt(), ok.cfl_dt());
}

TEST(Fdtd, InvalidGridThrows) {
  ElasticFdtd::Config cfg;
  cfg.nx = 4;
  EXPECT_THROW(ElasticFdtd(kMedium, cfg), std::invalid_argument);
}

TEST(Fdtd, QuiescentGridStaysQuiet) {
  ElasticFdtd::Config cfg;
  cfg.nx = 64;
  cfg.ny = 64;
  ElasticFdtd sim(kMedium, cfg);
  for (int i = 0; i < 50; ++i) sim.step();
  EXPECT_EQ(sim.total_energy(), 0.0);
}

TEST(Fdtd, PWaveSpeedMatchesMaterial) {
  // A y-force radiates P along the y axis: time the first arrival at a
  // receiver straight above the source.
  ElasticFdtd::Config cfg;
  cfg.nx = 160;
  cfg.ny = 360;
  cfg.dx = 2.0e-3;
  ElasticFdtd sim(kMedium, cfg);
  const auto src = ricker(90.0e3, sim.dt(), 200);
  const std::size_t sx = 80, sy = 60, ry = 300;
  const Real distance = static_cast<Real>(ry - sy) * cfg.dx;

  ArrivalProbe probe;
  const auto steps = static_cast<std::size_t>(
      1.8 * distance / kMedium.cp / sim.dt());
  for (std::size_t t = 0; t < steps; ++t) {
    if (t < src.size()) sim.add_force(sx, sy, 1, src[t]);
    sim.step();
    probe.record.push_back(sim.velocity_magnitude(sx, ry));
  }
  const Real t_arr = probe.first_arrival(sim.dt());
  ASSERT_GT(t_arr, 0.0);
  const Real measured_cp = distance / t_arr;
  EXPECT_NEAR(measured_cp, kMedium.cp, 0.12 * kMedium.cp);
}

TEST(Fdtd, SWaveSpeedMatchesMaterial) {
  // The same y-force radiates S along the x axis (transverse motion).
  ElasticFdtd::Config cfg;
  cfg.nx = 360;
  cfg.ny = 160;
  cfg.dx = 2.0e-3;
  ElasticFdtd sim(kMedium, cfg);
  const auto src = ricker(90.0e3, sim.dt(), 200);
  const std::size_t sx = 60, sy = 80, rx = 300;
  const Real distance = static_cast<Real>(rx - sx) * cfg.dx;

  ArrivalProbe probe;
  const auto steps = static_cast<std::size_t>(
      1.8 * distance / kMedium.cs / sim.dt());
  for (std::size_t t = 0; t < steps; ++t) {
    if (t < src.size()) sim.add_force(sx, sy, 1, src[t]);
    sim.step();
    probe.record.push_back(sim.velocity_magnitude(rx, sy));
  }
  // Use a higher threshold: a weak P precursor exists off-axis; the S
  // arrival carries the bulk of the energy.
  const Real t_arr = probe.first_arrival(sim.dt(), 0.4);
  ASSERT_GT(t_arr, 0.0);
  const Real measured_cs = distance / t_arr;
  EXPECT_NEAR(measured_cs, kMedium.cs, 0.15 * kMedium.cs);
}

TEST(Fdtd, ModeSeparationByDivergenceAndCurl) {
  // Along the force axis the motion is compressional (div-dominated);
  // perpendicular it is shear (curl-dominated) — the Appendix-A Helmholtz
  // decomposition observed numerically.
  ElasticFdtd::Config cfg;
  cfg.nx = 260;
  cfg.ny = 260;
  cfg.dx = 2.0e-3;
  ElasticFdtd sim(kMedium, cfg);
  const auto src = ricker(90.0e3, sim.dt(), 180);
  const std::size_t c = 130;
  // Probe window: 0.08-0.18 m from the source. Snapshot the P direction
  // when the P front is mid-window...
  const auto steps_p = static_cast<std::size_t>(0.13 / kMedium.cp / sim.dt());
  for (std::size_t t = 0; t < steps_p; ++t) {
    if (t < src.size()) sim.add_force(c, c, 1, src[t]);
    sim.step();
  }
  const auto above = sim.mode_energies(c - 10, c + 40, c + 10, c + 90);
  // ...then keep stepping until the slower S front reaches the same radius
  // and snapshot the S direction.
  const auto steps_s = static_cast<std::size_t>(0.13 / kMedium.cs / sim.dt());
  for (std::size_t t = steps_p; t < steps_s; ++t) {
    if (t < src.size()) sim.add_force(c, c, 1, src[t]);
    sim.step();
  }
  const auto beside = sim.mode_energies(c + 40, c - 10, c + 90, c + 10);
  EXPECT_GT(above.p, 2.0 * above.s);
  EXPECT_GT(beside.s, 2.0 * beside.p);
}

TEST(Fdtd, FreeSurfaceReflectsEnergy) {
  // Without a sponge, a pulse keeps (nearly) all its energy after hitting
  // the free boundary — the Eq. 1 physics that fills the wall with
  // S-reflections.
  ElasticFdtd::Config cfg;
  cfg.nx = 200;
  cfg.ny = 200;
  cfg.dx = 2.0e-3;
  ElasticFdtd sim(kMedium, cfg);
  const auto src = ricker(90.0e3, sim.dt(), 150);
  for (std::size_t t = 0; t < 150; ++t) {
    sim.add_force(100, 100, 1, src[t]);
    sim.step();
  }
  const Real e_before = sim.total_energy();
  // Long enough for multiple boundary interactions.
  for (int t = 0; t < 900; ++t) sim.step();
  const Real e_after = sim.total_energy();
  EXPECT_GT(e_after, 0.55 * e_before);  // leapfrog proxy energy wobbles
}

TEST(Fdtd, SpongeAbsorbsEnergy) {
  ElasticFdtd::Config cfg;
  cfg.nx = 200;
  cfg.ny = 200;
  cfg.dx = 2.0e-3;
  cfg.sponge_cells = 30;
  ElasticFdtd sim(kMedium, cfg);
  const auto src = ricker(90.0e3, sim.dt(), 150);
  for (std::size_t t = 0; t < 150; ++t) {
    sim.add_force(100, 100, 1, src[t]);
    sim.step();
  }
  const Real e_before = sim.total_energy();
  for (int t = 0; t < 900; ++t) sim.step();
  EXPECT_LT(sim.total_energy(), 0.3 * e_before);
}

TEST(Fdtd, RegionFillChangesLocalSpeed) {
  // A steel inclusion must carry the pulse faster than concrete: compare
  // arrival at the same distance through each half.
  ElasticFdtd::Config cfg;
  cfg.nx = 320;
  cfg.ny = 200;
  cfg.dx = 2.0e-3;
  // dt must satisfy the *steel* CFL; pre-set it.
  const Material steel = materials::steel();
  cfg.dt = 0.9 * cfg.dx / (std::sqrt(2.0) * steel.cp);
  ElasticFdtd sim(kMedium, cfg);
  sim.fill_region(0, 0, cfg.nx - 1, 99, steel);  // lower half steel

  const auto src = ricker(90.0e3, sim.dt(), 200);
  const std::size_t sx = 40;
  ArrivalProbe steel_probe, conc_probe;
  const auto steps = static_cast<std::size_t>(
      1.6 * (240.0 * cfg.dx) / kMedium.cp / sim.dt());
  for (std::size_t t = 0; t < steps; ++t) {
    if (t < src.size()) {
      sim.add_force(sx, 50, 1, src[t]);    // in the steel half
      sim.add_force(sx, 150, 1, src[t]);   // in the concrete half
    }
    sim.step();
    steel_probe.record.push_back(sim.velocity_magnitude(280, 50));
    conc_probe.record.push_back(sim.velocity_magnitude(280, 150));
  }
  const Real t_steel = steel_probe.first_arrival(sim.dt());
  const Real t_conc = conc_probe.first_arrival(sim.dt());
  ASSERT_GT(t_steel, 0.0);
  ASSERT_GT(t_conc, 0.0);
  EXPECT_LT(t_steel, t_conc);
}

/// Row-band parallelism must not change a single bit: every cell update
/// within a pass is independent, so the fields can't depend on worker
/// count. Run the same excitation serially and on a 4-worker pool and
/// require exact equality everywhere. `quiet_steps` steps run before the
/// burst starts so the no-forces-pending fast path is exercised on both
/// sides, and more quiet steps follow the burst for the flag's falling
/// edge.
void expect_serial_parallel_bit_identical(std::size_t n,
                                          std::size_t sponge_cells,
                                          std::size_t steps,
                                          std::size_t quiet_steps = 0) {
  core::ThreadPool one(1);
  core::ThreadPool pool(4);
  ElasticFdtd::Config serial_cfg;
  serial_cfg.nx = n;
  serial_cfg.ny = n;
  serial_cfg.dx = 2.0e-3;
  serial_cfg.sponge_cells = sponge_cells;
  serial_cfg.pool = &one;  // a one-worker pool steps serially
  ElasticFdtd::Config par_cfg = serial_cfg;
  par_cfg.pool = &pool;

  ElasticFdtd serial(kMedium, serial_cfg);
  ElasticFdtd parallel(kMedium, par_cfg);
  const auto src = ricker(90.0e3, serial.dt(), std::min<std::size_t>(steps / 2, 120));
  for (std::size_t t = 0; t < steps; ++t) {
    if (t >= quiet_steps && t - quiet_steps < src.size()) {
      serial.add_force(n / 2, n / 2, 1, src[t - quiet_steps]);
      parallel.add_force(n / 2, n / 2, 1, src[t - quiet_steps]);
    }
    serial.step();
    parallel.step();
  }
  ASSERT_GT(serial.total_energy(), 0.0);
  EXPECT_EQ(serial.total_energy(), parallel.total_energy());
  for (std::size_t iy = 0; iy < serial_cfg.ny; ++iy) {
    for (std::size_t ix = 0; ix < serial_cfg.nx; ++ix) {
      ASSERT_EQ(serial.vx(ix, iy), parallel.vx(ix, iy))
          << "vx mismatch at (" << ix << ", " << iy << ")";
      ASSERT_EQ(serial.vy(ix, iy), parallel.vy(ix, iy))
          << "vy mismatch at (" << ix << ", " << iy << ")";
    }
  }
}

TEST(Fdtd, SerialAndFourThreadStepsBitIdentical) {
  expect_serial_parallel_bit_identical(128, 12, 200);
}

TEST(Fdtd, SerialAndFourThreadStepsBitIdentical64FreeSurface) {
  expect_serial_parallel_bit_identical(64, 0, 150);
}

TEST(Fdtd, SerialAndFourThreadStepsBitIdentical512Sponge) {
  expect_serial_parallel_bit_identical(512, 24, 40);
}

TEST(Fdtd, SerialAndFourThreadStepsBitIdenticalMidRunForces) {
  // Quiet leading steps exercise the skip-forces velocity path before the
  // burst toggles forces_pending_ on, then off again after it ends.
  expect_serial_parallel_bit_identical(128, 0, 120, 25);
}

TEST(Fdtd, ForceOffGridThrows) {
  ElasticFdtd::Config cfg;
  cfg.nx = 32;
  cfg.ny = 32;
  ElasticFdtd sim(kMedium, cfg);
  EXPECT_THROW(sim.add_force(100, 1, 1, 1.0), std::out_of_range);
}

}  // namespace
}  // namespace ecocap::wave
