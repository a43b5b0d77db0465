#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "channel/concrete_channel.hpp"
#include "channel/link_budget.hpp"
#include "core/link_simulator.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fast_convolve.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/signal_ops.hpp"
#include "phy/carrier.hpp"
#include "phy/fm0.hpp"
#include "reader/inventory.hpp"
#include "reader/receiver.hpp"
#include "reader/transmitter.hpp"

namespace ecocap::reader {
namespace {

TEST(Transmitter, CwIsResonantTone) {
  TransmitterConfig cfg;
  Transmitter tx(cfg);
  dsp::Signal cw;
  tx.continuous_wave(0.01, cw);
  EXPECT_EQ(cw.size(), static_cast<std::size_t>(0.01 * cfg.carrier.fs));
  EXPECT_NEAR(dsp::estimate_tone_frequency(cw, cfg.carrier.fs, 150e3, 300e3),
              230.0e3, 200.0);
}

TEST(Transmitter, VoltageLimitEnforced) {
  Transmitter tx;
  EXPECT_THROW(tx.set_tx_voltage(300.0), std::invalid_argument);
  EXPECT_THROW(tx.set_tx_voltage(-1.0), std::invalid_argument);
  tx.set_tx_voltage(250.0);
  EXPECT_DOUBLE_EQ(tx.config().tx_voltage, 250.0);
}

TEST(Transmitter, FskCommandKeepsCarrierAlive) {
  // FSK downlink: the acoustic output never goes quiet mid-command.
  Transmitter tx;
  dsp::Workspace ws;
  dsp::Signal wave;
  tx.transmit_command(phy::Command{phy::QueryCommand{0}}, ws, wave);
  // Split into 1 ms windows; every window must carry energy.
  const std::size_t win = 2000;
  for (std::size_t i = 0; i + win <= wave.size(); i += win) {
    const dsp::Signal seg(wave.begin() + static_cast<long>(i),
                          wave.begin() + static_cast<long>(i + win));
    EXPECT_GT(dsp::rms(seg), 0.1) << "window at " << i;
  }
}

TEST(Transmitter, OokCommandHasQuietGaps) {
  TransmitterConfig cfg;
  cfg.scheme = phy::DownlinkScheme::kOok;
  cfg.pzt_q = 20.0;  // weak ring so gaps are visible
  Transmitter tx(cfg);
  dsp::Workspace ws;
  dsp::Signal wave;
  tx.transmit_command(phy::Command{phy::QueryCommand{0}}, ws, wave);
  Real min_rms = 1e9;
  const std::size_t win = 500;  // 0.25 ms
  for (std::size_t i = 0; i + win <= wave.size(); i += win) {
    const dsp::Signal seg(wave.begin() + static_cast<long>(i),
                          wave.begin() + static_cast<long>(i + win));
    min_rms = std::min(min_rms, dsp::rms(seg));
  }
  EXPECT_LT(min_rms, 0.05);
}

TEST(Receiver, DecodesCleanBackscatterFrame) {
  // Synthesize the exact uplink a node emits and decode it.
  const Real fs = 2.0e6;
  dsp::Rng rng(3);
  phy::Fm0Params line;
  line.bitrate = 1000.0;
  const phy::Bits payload = phy::random_bits(32, rng);
  const dsp::Signal switching = phy::fm0_encode_frame(payload, line, fs);

  dsp::Oscillator osc(fs, 230.0e3);
  const dsp::Signal carrier = osc.generate(switching.size() + 20000);
  phy::BackscatterParams bp;
  bp.f_blf = 4000.0;
  dsp::Signal rx = phy::backscatter_modulate(carrier, switching, fs, bp);
  // Strong CW self-interference plus noise.
  dsp::Oscillator cw(fs, 230.0e3);
  cw.reset_phase(1.1);
  for (auto& v : rx) v += cw.next(3.0);
  dsp::add_awgn(rx, 0.02, rng);

  ReceiverConfig rcfg;
  rcfg.fs = fs;
  rcfg.blf = 4000.0;
  rcfg.uplink = line;
  Receiver receiver(rcfg);
  const UplinkDecode dec = receiver.decode(rx, payload.size());
  ASSERT_TRUE(dec.valid);
  EXPECT_EQ(dec.payload, payload);
  EXPECT_NEAR(dec.carrier_estimate, 230.0e3, 300.0);
  EXPECT_GT(dec.snr_db, 5.0);
}

TEST(Receiver, DecodesWithoutSubcarrier) {
  const Real fs = 1.0e6;
  dsp::Rng rng(4);
  phy::Fm0Params line;
  line.bitrate = 2000.0;
  const phy::Bits payload = phy::random_bits(24, rng);
  const dsp::Signal switching = phy::fm0_encode_frame(payload, line, fs);
  dsp::Oscillator osc(fs, 230.0e3);
  const dsp::Signal carrier = osc.generate(switching.size() + 10000);
  phy::BackscatterParams bp;  // no BLF
  dsp::Signal rx = phy::backscatter_modulate(carrier, switching, fs, bp);
  dsp::add_awgn(rx, 0.01, rng);

  ReceiverConfig rcfg;
  rcfg.fs = fs;
  rcfg.blf = 0.0;
  rcfg.uplink = line;
  Receiver receiver(rcfg);
  const UplinkDecode dec = receiver.decode(rx, payload.size());
  ASSERT_TRUE(dec.valid);
  EXPECT_EQ(dec.payload, payload);
}


TEST(Receiver, DemodulatedBasebandTracksSwitching) {
  // Without a subcarrier, the demodulated baseband is the (phase-aligned)
  // switching waveform: its sign flips must line up with the FM0 symbols.
  const Real fs = 1.0e6;
  phy::Fm0Params line;
  line.bitrate = 2000.0;
  const phy::Bits payload{1, 1, 1, 1, 1, 1, 1, 1};  // constant-rate toggling
  const dsp::Signal switching = phy::fm0_encode_frame(payload, line, fs);
  dsp::Oscillator osc(fs, 230.0e3);
  const dsp::Signal carrier = osc.generate(switching.size());
  phy::BackscatterParams bp;
  const dsp::Signal rx = phy::backscatter_modulate(carrier, switching, fs, bp);

  ReceiverConfig rcfg;
  rcfg.fs = fs;
  rcfg.blf = 0.0;
  rcfg.uplink = line;
  Receiver receiver(rcfg);
  const dsp::Signal demod = receiver.demodulated_baseband(rx);
  ASSERT_EQ(demod.size(), rx.size());
  // The demodulated waveform correlates strongly (either polarity) with
  // the switching pattern.
  const Real c = dsp::correlation_coefficient(demod, switching);
  EXPECT_GT(std::abs(c), 0.5);
}

TEST(Receiver, DemodulatedBasebandIsTheDecoderFrontEnd) {
  // A default-system uplink capture: a 32-bit FM0 frame at 1 kb/s and a
  // 4 kHz BLF, reflected by the node and carried back by the default
  // channel (~96k samples at 2 MHz). The diagnostic baseband must be
  // decode's front end with every sample kept: mixed at decode's carrier,
  // low-passed and phase-aligned. The reference mixes with mix_down, runs
  // the direct convolution over each rail advanced by the group delay,
  // removes the mean and projects onto the principal phase axis.
  const core::SystemConfig cfg = core::default_system();
  const Real fs = cfg.channel.fs;
  const phy::Fm0Params line = cfg.capsule.firmware.uplink;
  dsp::Rng prng(9);
  const phy::Bits payload = phy::random_bits(32, prng);
  const channel::ConcreteChannel ch(cfg.structure, cfg.channel);
  Transmitter transmitter(cfg.transmitter);
  dsp::Rng rng(7);
  dsp::Signal cw, at_node, emission, capture;
  transmitter.continuous_wave(
      phy::fm0_frame_seconds(payload.size(), line, line.bitrate), cw);
  ch.downlink(cw, rng, at_node);
  dsp::scale(at_node, channel::node_volts_scale(cfg.structure,
                                                cfg.transmitter.tx_voltage));
  phy::BackscatterParams bp = cfg.capsule.backscatter;
  bp.f_blf = cfg.capsule.firmware.blf;
  phy::backscatter_modulate(at_node, phy::fm0_encode_frame(payload, line, fs),
                            fs, bp, emission);
  ch.uplink(emission, cfg.transmitter.carrier.f_resonant, rng, capture);

  Receiver receiver(cfg.receiver);
  receiver.set_blf(bp.f_blf);
  receiver.set_bitrate(line.bitrate);
  const UplinkDecode dec = receiver.decode(capture, payload.size());
  ASSERT_TRUE(dec.valid);
  ASSERT_EQ(dec.payload, payload);
  const dsp::Signal got = receiver.demodulated_baseband(capture);

  const ReceiverConfig& rc = receiver.config();
  const dsp::Signal h = dsp::design_lowpass(
      fs, std::max(2.5 * line.bitrate + bp.f_blf, 8.0e3), rc.lowpass_taps);
  const dsp::ComplexSignal mixed =
      dsp::mix_down(capture, fs, dec.carrier_estimate);
  dsp::Signal re(mixed.size()), im(mixed.size());
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    re[i] = mixed[i].real();
    im[i] = mixed[i].imag();
  }
  const dsp::Signal full_re = dsp::convolve_full_direct(re, h);
  const dsp::Signal full_im = dsp::convolve_full_direct(im, h);
  const std::size_t delay = (h.size() - 1) / 2;
  dsp::ComplexSignal z(mixed.size());
  dsp::Complex mean(0.0, 0.0);
  for (std::size_t i = 0; i < z.size(); ++i) {
    z[i] = dsp::Complex(full_re[delay + i], full_im[delay + i]);
    mean += z[i];
  }
  mean /= static_cast<Real>(z.size());
  dsp::Complex sq(0.0, 0.0);
  for (const dsp::Complex& v : z) sq += (v - mean) * (v - mean);
  const dsp::Complex rot = std::polar<Real>(1.0, -0.5 * std::arg(sq));

  // Relative to the peak of the complex baseband: the mean removal cancels
  // the large self-interference term but not the filter's rounding error.
  ASSERT_EQ(got.size(), capture.size());
  Real scale = 0.0, err = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    const Real ref = ((z[i] - mean) * rot).real();
    scale = std::max(scale, std::abs(z[i]));
    err = std::max(err, std::abs(got[i] - ref));
  }
  EXPECT_LE(err, 1e-12 * scale) << "max error " << err << " of " << scale;
}

TEST(Receiver, RejectsNoiseOnlyCapture) {
  const Real fs = 1.0e6;
  dsp::Rng rng(5);
  dsp::Signal rx(100000, 0.0);
  dsp::add_awgn(rx, 1.0, rng);
  // Provide a faint carrier so the estimator has something to lock to but
  // no frame content.
  dsp::Oscillator osc(fs, 230.0e3);
  for (auto& v : rx) v += osc.next(0.5);
  ReceiverConfig rcfg;
  rcfg.fs = fs;
  Receiver receiver(rcfg);
  const UplinkDecode dec = receiver.decode(rx, 32);
  EXPECT_FALSE(dec.valid);
}

TEST(Receiver, CarrierEstimateEqualsWholeWindowEstimator) {
  // The decoder finds its carrier from a prefix FFT, the residual tone of
  // the decimated baseband and a few Goertzel bins; the value must be the
  // whole-window estimator's. Sweep tones over the search band, bin-centred
  // and half-bin for each window's transform length, under a strong SI
  // line, +-BLF sidebands and AWGN, across window lengths below, at and
  // above the coarse prefix.
  ReceiverConfig rcfg;
  const Real fs = rcfg.fs;
  const Receiver receiver(rcfg);
  dsp::Workspace ws;
  dsp::Rng rng(21);
  for (const std::size_t n : {100UL, 16384UL, 16385UL, 52000UL, 144000UL}) {
    const Real bin = fs / static_cast<Real>(
                              dsp::next_pow2(std::max<std::size_t>(n, 1024)));
    const Real k_mid = std::round(230.0e3 / bin);
    for (const Real f : {std::ceil(151.0e3 / bin) * bin, k_mid * bin,
                         (k_mid + 0.5) * bin, 187654.3,
                         (std::floor(298.0e3 / bin) - 0.5) * bin}) {
      dsp::Signal rx(n);
      for (std::size_t i = 0; i < n; ++i) {
        const Real t = static_cast<Real>(i) / fs;
        rx[i] = 3.0 * std::cos(dsp::kTwoPi * f * t + 1.1) +
                0.3 * std::cos(dsp::kTwoPi * (f + rcfg.blf) * t) +
                0.3 * std::cos(dsp::kTwoPi * (f - rcfg.blf) * t + 0.5);
      }
      dsp::add_awgn(rx, 0.2, rng);
      const Real expected = dsp::estimate_tone_frequency(
          rx, fs, rcfg.carrier_search_lo, rcfg.carrier_search_hi);
      EXPECT_NEAR(receiver.decode(rx, 32, ws).carrier_estimate, expected,
                  1e-6)
          << "n=" << n << " f=" << f;
    }
  }
}

TEST(Receiver, EmptyCapture) {
  Receiver receiver;
  const UplinkDecode dec = receiver.decode(dsp::Signal{}, 8);
  EXPECT_FALSE(dec.valid);
}

InventoriedNode make_node(node::Firmware& fw, double snr = 25.0) {
  InventoriedNode n;
  n.firmware = &fw;
  n.snr_db = snr;
  n.environment.temperature_c = 30.0;
  return n;
}

TEST(Inventory, SingleNodeReadsAllSensors) {
  node::FirmwareConfig fc;
  fc.node_id = 0x11;
  node::Firmware fw(fc, 9);
  fw.power_on();
  std::vector<InventoriedNode> nodes{make_node(fw)};

  InventoryEngine::Config cfg;
  cfg.q = 0;
  cfg.sensors_to_read = {
      static_cast<std::uint8_t>(node::SensorId::kTemperature),
      static_cast<std::uint8_t>(node::SensorId::kHumidity)};
  InventoryEngine engine(cfg, 1);
  const InventoryResult r = engine.run(nodes);
  ASSERT_EQ(r.inventoried_ids.size(), 1u);
  EXPECT_EQ(r.inventoried_ids[0], 0x11);
  EXPECT_EQ(r.readings.size(), 2u);
  EXPECT_EQ(r.stats.collisions, 0);
}

TEST(Inventory, TenNodesAllInventoried) {
  std::vector<std::unique_ptr<node::Firmware>> firmwares;
  std::vector<InventoriedNode> nodes;
  for (int i = 0; i < 10; ++i) {
    node::FirmwareConfig fc;
    fc.node_id = static_cast<std::uint16_t>(0x100 + i);
    firmwares.push_back(std::make_unique<node::Firmware>(fc, 100 + i));
    firmwares.back()->power_on();
    nodes.push_back(make_node(*firmwares.back()));
  }
  InventoryEngine::Config cfg;
  cfg.q = 3;  // 8 slots: collisions guaranteed across rounds
  cfg.max_rounds = 20;
  cfg.sensors_to_read = {
      static_cast<std::uint8_t>(node::SensorId::kStress)};
  InventoryEngine engine(cfg, 2);
  const InventoryResult r = engine.run(nodes);
  EXPECT_EQ(r.inventoried_ids.size(), 10u);
  EXPECT_EQ(r.readings.size(), 10u);
  EXPECT_GT(r.stats.collisions, 0);  // with 10 nodes in 8 slots, certain
}

TEST(Inventory, LowSnrNodesRetryAndMayFail) {
  node::FirmwareConfig fc;
  fc.node_id = 0x22;
  node::Firmware fw(fc, 10);
  fw.power_on();
  std::vector<InventoriedNode> nodes{make_node(fw, -5.0)};  // terrible link
  InventoryEngine::Config cfg;
  cfg.q = 0;
  cfg.max_rounds = 3;
  InventoryEngine engine(cfg, 3);
  const InventoryResult r = engine.run(nodes);
  // At -5 dB the RN16 almost never survives: no inventory, several slots.
  EXPECT_TRUE(r.inventoried_ids.empty());
  EXPECT_GE(r.stats.slots, 3);
}

TEST(Inventory, CollisionStatsCounted) {
  // Two nodes forced into the same (only) slot with q = 0.
  node::FirmwareConfig fc1, fc2;
  fc1.node_id = 1;
  fc2.node_id = 2;
  node::Firmware a(fc1, 11), b(fc2, 12);
  a.power_on();
  b.power_on();
  std::vector<InventoriedNode> nodes{make_node(a), make_node(b)};
  InventoryEngine::Config cfg;
  cfg.q = 0;
  cfg.max_rounds = 1;
  InventoryEngine engine(cfg, 4);
  const InventoryResult r = engine.run(nodes);
  EXPECT_EQ(r.stats.collisions, 1);
  EXPECT_TRUE(r.inventoried_ids.empty());
}

TEST(Inventory, AssignBlfsStaggersNodes) {
  std::vector<std::unique_ptr<node::Firmware>> firmwares;
  std::vector<InventoriedNode> nodes;
  for (int i = 0; i < 3; ++i) {
    node::FirmwareConfig fc;
    fc.node_id = static_cast<std::uint16_t>(i + 1);
    firmwares.push_back(std::make_unique<node::Firmware>(fc, 50 + i));
    firmwares.back()->power_on();
    nodes.push_back(make_node(*firmwares.back()));
  }
  InventoryEngine::Config cfg;
  InventoryEngine engine(cfg, 5);
  const auto assigned = engine.assign_blfs(nodes, 4000.0, 1000.0);
  EXPECT_EQ(assigned.size(), 3u);
  EXPECT_DOUBLE_EQ(firmwares[0]->config().blf, 4000.0);
  EXPECT_DOUBLE_EQ(firmwares[1]->config().blf, 5000.0);
  EXPECT_DOUBLE_EQ(firmwares[2]->config().blf, 6000.0);
}


TEST(Receiver, SimultaneousBackscatterCollides) {
  // Waveform-level validation of why the TDMA arbitration exists (§3.4):
  // two nodes answering in the same slot produce a superposition the
  // reader cannot decode as either frame.
  const Real fs = 2.0e6;
  dsp::Rng rng(77);
  phy::Fm0Params line;
  line.bitrate = 1000.0;
  const phy::Bits pay_a = phy::random_bits(16, rng);
  const phy::Bits pay_b = phy::random_bits(16, rng);
  const dsp::Signal sw_a = phy::fm0_encode_frame(pay_a, line, fs);
  const dsp::Signal sw_b = phy::fm0_encode_frame(pay_b, line, fs);
  dsp::Oscillator osc(fs, 230.0e3);
  const dsp::Signal carrier = osc.generate(sw_a.size() + 8000);
  phy::BackscatterParams bp;
  bp.f_blf = 4000.0;
  dsp::Signal rx = phy::backscatter_modulate(carrier, sw_a, fs, bp);
  const dsp::Signal rx_b = phy::backscatter_modulate(carrier, sw_b, fs, bp);
  for (std::size_t i = 0; i < rx.size(); ++i) rx[i] += 0.9 * rx_b[i];
  dsp::add_awgn(rx, 0.01, rng);

  ReceiverConfig rcfg;
  rcfg.fs = fs;
  rcfg.blf = 4000.0;
  rcfg.uplink = line;
  Receiver receiver(rcfg);
  const UplinkDecode dec = receiver.decode(rx, pay_a.size());
  // Either no decode at all or a garbled payload: never both frames clean.
  if (dec.valid) {
    EXPECT_TRUE(dec.payload != pay_a || dec.payload != pay_b);
    const bool clean_a = (dec.payload == pay_a);
    const bool clean_b = (dec.payload == pay_b);
    EXPECT_FALSE(clean_a && clean_b);
  } else {
    SUCCEED();
  }
}

/// Property: the receiver decodes across the bitrate sweep used in Fig. 16.
class ReceiverBitrateSweep : public ::testing::TestWithParam<double> {};

TEST_P(ReceiverBitrateSweep, DecodesAtBitrate) {
  const Real fs = 2.0e6;
  dsp::Rng rng(6);
  phy::Fm0Params line;
  line.bitrate = GetParam();
  const phy::Bits payload = phy::random_bits(16, rng);
  const dsp::Signal switching = phy::fm0_encode_frame(payload, line, fs);
  dsp::Oscillator osc(fs, 230.0e3);
  const dsp::Signal carrier = osc.generate(switching.size() + 8000);
  phy::BackscatterParams bp;
  bp.f_blf = 30000.0;  // keep the subcarrier above the data band
  dsp::Signal rx = phy::backscatter_modulate(carrier, switching, fs, bp);
  dsp::add_awgn(rx, 0.01, rng);

  ReceiverConfig rcfg;
  rcfg.fs = fs;
  rcfg.blf = 30000.0;
  rcfg.uplink = line;
  Receiver receiver(rcfg);
  const UplinkDecode dec = receiver.decode(rx, payload.size());
  ASSERT_TRUE(dec.valid) << GetParam();
  EXPECT_EQ(dec.payload, payload) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Bitrates, ReceiverBitrateSweep,
                         ::testing::Values(1000.0, 2000.0, 4000.0, 8000.0));

// Regression test for receiver retuning: set_blf / set_bitrate change the
// low-pass cutoff, the decimation factor and the subcarrier sweep of the
// decode chain. A stale cached filter design (the FilterCache is keyed on
// the derived cutoff) or a latched decimation would make the retuned decode
// differ from a receiver constructed with the right parameters directly.
TEST(Receiver, RetuneBlfAndBitratePickedUpByDecodeChain) {
  const Real fs = 2.0e6;
  dsp::Rng rng(9);
  phy::Fm0Params line;
  line.bitrate = 1000.0;
  const phy::Bits payload = phy::random_bits(32, rng);
  const dsp::Signal switching = phy::fm0_encode_frame(payload, line, fs);
  dsp::Oscillator osc(fs, 230.0e3);
  const dsp::Signal carrier = osc.generate(switching.size() + 20000);
  phy::BackscatterParams bp;
  bp.f_blf = 4000.0;
  dsp::Signal rx = phy::backscatter_modulate(carrier, switching, fs, bp);
  dsp::add_awgn(rx, 0.01, rng);

  // Start mis-tuned (wrong BLF and bitrate), then retune to the truth.
  ReceiverConfig rcfg;
  rcfg.fs = fs;
  rcfg.blf = 12000.0;
  rcfg.uplink = line;
  rcfg.uplink.bitrate = 4000.0;
  Receiver retuned(rcfg);
  (void)retuned.decode(rx, payload.size());  // prime any cached designs
  retuned.set_blf(4000.0);
  retuned.set_bitrate(1000.0);
  const UplinkDecode after = retuned.decode(rx, payload.size());

  // Reference: a receiver built with the correct parameters from scratch.
  ReceiverConfig good = rcfg;
  good.blf = 4000.0;
  good.uplink.bitrate = 1000.0;
  Receiver reference(good);
  const UplinkDecode expected = reference.decode(rx, payload.size());

  ASSERT_TRUE(expected.valid);
  ASSERT_TRUE(after.valid);
  EXPECT_EQ(after.payload, payload);
  EXPECT_EQ(after.payload, expected.payload);
  EXPECT_DOUBLE_EQ(after.snr_db, expected.snr_db);
  EXPECT_DOUBLE_EQ(after.carrier_estimate, expected.carrier_estimate);
  EXPECT_DOUBLE_EQ(after.preamble_correlation, expected.preamble_correlation);
}

// The same retune must hold on a reused workspace: pooled scratch from the
// mis-tuned decode (different buffer sizes after the different decimation)
// cannot leak into the retuned one.
TEST(Receiver, RetuneOnSharedWorkspaceMatchesFreshWorkspace) {
  const Real fs = 1.0e6;
  dsp::Rng rng(11);
  phy::Fm0Params line;
  line.bitrate = 2000.0;
  const phy::Bits payload = phy::random_bits(24, rng);
  const dsp::Signal switching = phy::fm0_encode_frame(payload, line, fs);
  dsp::Oscillator osc(fs, 230.0e3);
  const dsp::Signal carrier = osc.generate(switching.size() + 10000);
  phy::BackscatterParams bp;
  bp.f_blf = 8000.0;
  dsp::Signal rx = phy::backscatter_modulate(carrier, switching, fs, bp);
  dsp::add_awgn(rx, 0.01, rng);

  ReceiverConfig rcfg;
  rcfg.fs = fs;
  rcfg.blf = 16000.0;  // mis-tuned
  rcfg.uplink = line;
  Receiver receiver(rcfg);

  dsp::Workspace shared_ws;
  (void)receiver.decode(rx, payload.size(), shared_ws);
  receiver.set_blf(8000.0);
  const UplinkDecode pooled = receiver.decode(rx, payload.size(), shared_ws);

  dsp::Workspace fresh_ws;
  const UplinkDecode fresh = receiver.decode(rx, payload.size(), fresh_ws);

  ASSERT_TRUE(fresh.valid);
  ASSERT_TRUE(pooled.valid);
  EXPECT_EQ(pooled.payload, fresh.payload);
  EXPECT_DOUBLE_EQ(pooled.snr_db, fresh.snr_db);
  EXPECT_DOUBLE_EQ(pooled.preamble_correlation, fresh.preamble_correlation);
}

}  // namespace
}  // namespace ecocap::reader
