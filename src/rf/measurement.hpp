// Observation types produced by the reader for upper layers.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/epc.hpp"
#include "util/sim_time.hpp"

namespace tagwatch::rf {

/// Identifies one reader antenna port (1-based, as LLRP reports them).
using AntennaId = std::uint8_t;

/// One successful tag read with its physical-layer metadata — the tuple a
/// COTS reader (e.g. ImpinJ R420) reports per EPC: RF phase, RSSI, antenna,
/// channel, and timestamp.  This is the only information Tagwatch consumes.
struct TagReading {
  util::Epc epc;
  AntennaId antenna = 1;
  std::size_t channel = 0;       ///< Index into the reader's ChannelPlan.
  double phase_rad = 0.0;        ///< Backscatter phase in [0, 2π).
  double rssi_dbm = 0.0;         ///< Received signal strength.
  util::SimTime timestamp{0};    ///< Simulation time of the read.
};

// A reading is copied at every layer it passes: keep it within 64 bytes.
static_assert(sizeof(TagReading) <= 64, "TagReading must fit in 64 bytes");

}  // namespace tagwatch::rf
