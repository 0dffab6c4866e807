#include "trace/trackpoint.hpp"

#include <algorithm>

#include "rf/channel.hpp"
#include "sim/world.hpp"
#include "util/circular.hpp"
#include "util/rng.hpp"

namespace tagwatch::trace {

namespace {

struct ScheduledTag {
  sim::SimTag tag;
  bool conveyor;
};

/// Pre-generates the full population schedule: every conveyor transit and
/// every parked-slot occupancy for the whole trace duration.
std::vector<ScheduledTag> build_population(const TrackPointScenario& s,
                                           util::Rng& rng) {
  std::vector<ScheduledTag> out;
  std::uint64_t serial = 1;
  const util::SimTime t_end = util::SimTime{0} + s.duration;

  // Conveyor stream.
  const double rate_per_s = s.conveyor_arrivals_per_min / 60.0;
  util::SimTime t{0};
  while (true) {
    t += util::from_seconds(rng.exponential(rate_per_s));
    if (t >= t_end) break;
    const double transit_s = s.read_zone_m / s.conveyor_speed_mps;
    sim::SimTag tag;
    tag.epc = util::Epc::random(rng);
    tag.motion = std::make_shared<sim::LinearConveyor>(
        util::Vec3{-s.read_zone_m / 2.0, 0.0, 0.0},
        util::Vec3{s.conveyor_speed_mps, 0.0, 0.0}, t, s.read_zone_m);
    tag.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
    tag.arrives = t;
    tag.departs = t + util::from_seconds(transit_s);
    out.push_back({std::move(tag), true});
    ++serial;
  }

  // Parked slots: back-to-back dwellers near the gate.
  for (std::size_t slot = 0; slot < s.parked_slots; ++slot) {
    util::SimTime cursor{0};
    while (cursor < t_end) {
      const auto dwell = util::from_seconds(
          rng.uniform(util::to_seconds(s.parked_dwell_min),
                      util::to_seconds(s.parked_dwell_max)));
      sim::SimTag tag;
      tag.epc = util::Epc::random(rng);
      tag.motion = std::make_shared<sim::StaticMotion>(
          util::Vec3{rng.uniform(-3.0, 3.0), rng.uniform(0.5, 2.5), 0.0});
      tag.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      tag.arrives = cursor;
      tag.departs = cursor + dwell;
      out.push_back({std::move(tag), false});
      cursor += dwell;
      ++serial;
    }
  }
  (void)serial;
  return out;
}

std::size_t peak_concurrency(const std::vector<ScheduledTag>& population,
                             util::SimDuration duration) {
  // Sweep-line over conveyor presence windows at 1 s resolution.
  std::vector<int> delta(
      static_cast<std::size_t>(util::to_seconds(duration)) + 2, 0);
  for (const auto& st : population) {
    if (!st.conveyor) continue;
    const auto from = static_cast<std::size_t>(
        util::to_seconds(st.tag.arrives - util::SimTime{0}));
    const auto to = st.tag.departs
                        ? static_cast<std::size_t>(util::to_seconds(
                              *st.tag.departs - util::SimTime{0}))
                        : delta.size() - 2;
    if (from + 1 < delta.size()) ++delta[from];
    if (to + 1 < delta.size()) --delta[to + 1];
  }
  std::size_t peak = 0;
  long running = 0;
  for (const int d : delta) {
    running += d;
    peak = std::max(peak, static_cast<std::size_t>(std::max(running, 0L)));
  }
  return peak;
}

}  // namespace

TraceResult generate_trackpoint_trace(const TrackPointScenario& scenario) {
  util::Rng rng(scenario.seed);
  auto population = build_population(scenario, rng);

  sim::World world;
  std::unordered_map<util::Epc, bool> is_conveyor;
  for (auto& st : population) {
    is_conveyor.emplace(st.tag.epc, st.conveyor);
    world.add_tag(std::move(st.tag));
  }

  // TrackPoint gate: three antennas mounted above the conveyor.
  const std::vector<rf::Antenna> antennas = {
      {1, {-1.0, 0.0, 2.0}, 8.0},
      {2, {0.0, 0.0, 2.0}, 8.0},
      {3, {1.0, 0.0, 2.0}, 8.0},
  };
  const rf::RfChannel channel(rf::ChannelPlan::china_920_926());
  gen2::Gen2Reader reader(gen2::LinkTiming(scenario.link), scenario.reader,
                          world, channel, antennas, rng.fork());

  // Continuous read-all inventory with dual-target alternation, streaming
  // counts (a 4-hour trace yields millions of readings; do not store them).
  std::unordered_map<util::Epc, std::size_t> counts;
  const std::size_t minutes =
      static_cast<std::size_t>(util::to_seconds(scenario.duration) / 60.0) + 1;
  std::vector<std::size_t> per_minute(minutes, 0);
  std::size_t total = 0;

  const auto on_read = [&](const rf::TagReading& r) {
    ++counts[r.epc];
    ++total;
    const auto minute =
        static_cast<std::size_t>(util::to_seconds(r.timestamp) / 60.0);
    if (minute < per_minute.size()) ++per_minute[minute];
  };

  const util::SimTime t_end = util::SimTime{0} + scenario.duration;
  gen2::InvFlag target = gen2::InvFlag::kA;
  std::size_t antenna_cursor = 0;
  while (world.now() < t_end) {
    reader.set_active_antenna(antenna_cursor);
    antenna_cursor = (antenna_cursor + 1) % antennas.size();
    gen2::QueryCommand query;
    query.sel = gen2::QuerySel::kAll;
    query.session = gen2::Session::kS1;
    query.target = target;
    target = (target == gen2::InvFlag::kA) ? gen2::InvFlag::kB
                                           : gen2::InvFlag::kA;
    query.q = 4;
    reader.run_inventory_round(query, on_read);
  }

  TraceResult result;
  result.total_readings = total;
  result.total_tags = counts.size();
  result.peak_concurrent_movers =
      peak_concurrency(population, scenario.duration);
  result.readings_per_minute = std::move(per_minute);
  result.per_tag.reserve(counts.size());
  for (const auto& [epc, n] : counts) {
    result.per_tag.push_back({epc, n, is_conveyor.at(epc)});
  }
  std::sort(result.per_tag.begin(), result.per_tag.end(),
            [](const TraceTagRecord& a, const TraceTagRecord& b) {
              if (a.readings != b.readings) return a.readings > b.readings;
              return a.epc < b.epc;
            });
  return result;
}

double fraction_read_over(const TraceResult& result, std::size_t threshold) {
  if (result.per_tag.empty()) return 0.0;
  const auto over = static_cast<double>(std::count_if(
      result.per_tag.begin(), result.per_tag.end(),
      [threshold](const TraceTagRecord& t) { return t.readings > threshold; }));
  return over / static_cast<double>(result.per_tag.size());
}

}  // namespace tagwatch::trace
