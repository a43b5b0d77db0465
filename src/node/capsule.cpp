#include "node/capsule.hpp"

namespace ecocap::node {

EcoCapsule::EcoCapsule(CapsuleConfig config, double fs, std::uint64_t seed)
    : config_(config),
      fs_(fs),
      shell_(config.shell),
      hra_(wave::HelmholtzResonator::paper_prototype(), config.hra_cells),
      harvest_(config.harvester, fs, config.hra_gain, config.power),
      frontend_(fs),
      firmware_(config.firmware, seed) {}

CapsuleRxResult EcoCapsule::receive(std::span<const dsp::Real> acoustic,
                                    const ConcreteEnvironment& env) {
  CapsuleRxResult result;
  if (acoustic.empty()) return result;

  // 1. Harvest: the HRA amplifies the arriving vibration before the PZT;
  //    the storage cap charges on the 1 ms grid, which this leg closes.
  harvest_.push(acoustic);
  harvest_.flush();
  result.cap_voltage = harvest_.harvester().cap_voltage();
  result.powered = harvest_.harvester().mcu_powered();
  if (result.powered) {
    firmware_.power_on();
  } else {
    firmware_.power_off();
    return result;
  }

  // 2. Demodulate and run the protocol. The level buffer is a member so
  //    repeated interrogations reuse its capacity.
  frontend_.demodulate(acoustic, levels_);
  result.frames = firmware_.process_downlink(levels_, fs_, env);
  return result;
}

void EcoCapsule::backscatter(const UplinkFrame& frame,
                             std::span<const dsp::Real> incident_carrier,
                             dsp::Workspace& ws, dsp::Signal& out) {
  phy::Fm0Params line = config_.firmware.uplink;
  line.bitrate = frame.bitrate;
  auto switching = ws.real(0);
  phy::fm0_encode_frame(frame.payload, line, fs_, *switching);
  phy::BackscatterParams bp = config_.backscatter;
  bp.f_blf = frame.blf;
  phy::backscatter_modulate(incident_carrier, *switching, fs_, bp, out);
}

}  // namespace ecocap::node
