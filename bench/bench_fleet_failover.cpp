// Fleet failover harness: coverage gap and missed movers vs takeover
// policy when a reader dies mid-run.
//
// Four readers tile a strip at 4 m pitch with 2.5 m radii; statics cluster
// at the zone centers and movers orbit the seam between zones 0 and 1.  A
// scripted outage kills reader 0 permanently a few cycles in.  The fleet
// health state machine declares it Down after down_after consecutive
// blackout cycles, and then the takeover policy decides what happens to
// zone 0's tags:
//   none     — nobody expands; zone-0 statics go dark until the run ends.
//   static   — the nearest survivors widen by a fixed margin: partial
//              re-cover (the far half of zone 0 stays dark).
//   adaptive — survivors widen exactly far enough to reach the orphaned
//              zone (budget-capped) and the re-cover queue pins the
//              orphans as Phase II targets: full re-cover.
//
// Metrics: per-orphan coverage gap (reader death -> next delivered
// reading, capped at run end) and the fraction of post-death cycles in
// which a mover was missed.  Headline: adaptive takeover must beat the
// no-takeover baseline by at least 2x on coverage gap — the harness exits
// nonzero otherwise, so CI bench-smoke gates on it.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/fleet.hpp"
#include "llrp/fault_injection.hpp"
#include "llrp/sim_reader_client.hpp"
#include "util/circular.hpp"

using namespace tagwatch;

namespace {

constexpr std::size_t kReaders = 4;
constexpr std::size_t kTagsPerZone = 6;
constexpr std::size_t kMovers = 2;
constexpr double kPitch = 4.0;
constexpr double kRadius = 2.5;
constexpr std::size_t kDeathCycle = 3;  // Outage starts entering this cycle.
constexpr std::size_t kCycles = 10;
constexpr std::uint64_t kMoverSerialBase = 100;

struct Strip {
  sim::World world;
  rf::RfChannel channel{rf::ChannelPlan::single(920.625e6)};
  std::shared_ptr<gen2::TagFlagField> field;
  std::vector<std::unique_ptr<llrp::SimReaderClient>> sims;
  std::vector<std::unique_ptr<llrp::FaultInjectingReaderClient>> injectors;
  std::vector<core::FleetReaderSpec> specs;

  /// `death_at` zero builds a fault-free strip (the probe run that
  /// measures when kDeathCycle starts on the sim clock).
  Strip(std::uint64_t seed, util::SimTime death_at) {
    util::Rng rng(seed);
    field = std::make_shared<gen2::TagFlagField>(
        gen2::SessionTiming::spec_default());
    std::size_t serial = 1;
    for (std::size_t r = 0; r < kReaders; ++r) {
      const double cx = static_cast<double>(r) * kPitch;
      sim::Zone zone{"zone-" + std::to_string(r), {cx, 0, 0}, kRadius};
      for (std::size_t i = 0; i < kTagsPerZone; ++i) {
        sim::SimTag t;
        t.epc = util::Epc::from_serial(serial++);
        t.motion = std::make_shared<sim::StaticMotion>(util::Vec3{
            cx + rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 0});
        t.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
        world.add_tag(std::move(t));
      }
      gen2::ReaderConfig rc;
      rc.coverage = zone;
      sims.push_back(std::make_unique<llrp::SimReaderClient>(
          gen2::LinkTiming(gen2::LinkParams::max_throughput()), rc, world,
          channel, std::vector<rf::Antenna>{{1, {cx, 0, 2}, 8.0}},
          seed + 10 + r, field));
      llrp::FaultPlan plan;
      plan.seed = seed + 90 + r;
      if (r == 0 && death_at > util::SimTime{0}) {
        plan.outages.push_back({death_at, std::nullopt});
      }
      injectors.push_back(std::make_unique<llrp::FaultInjectingReaderClient>(
          *sims.back(), plan));
      specs.push_back({injectors.back().get(), zone});
    }
    for (std::size_t i = 0; i < kMovers; ++i) {
      sim::SimTag t;
      t.epc = util::Epc::from_serial(kMoverSerialBase + i);
      t.motion = std::make_shared<sim::CircularTrack>(
          util::Vec3{kPitch / 2.0, 0, 0}, 1.8, 0.8,
          static_cast<double>(i) * 2.5);
      t.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      world.add_tag(std::move(t));
    }
  }
};

/// Records every fleet-pipeline delivery: per EPC, the delivery times and
/// which reader/cycle produced them.
class GapSink final : public core::ReadingSink {
 public:
  struct Delivery {
    util::SimTime at{0};
    std::size_t source = 0;
    std::size_t cycle = 0;
  };

  std::string_view name() const override { return "gap-probe"; }
  bool on_reading(const rf::TagReading& reading,
                  const core::ReadingContext& context) override {
    deliveries[reading.epc].push_back(
        {reading.timestamp, context.source_id, context.cycle_index});
    return true;
  }

  std::map<util::Epc, std::vector<Delivery>> deliveries;
};

struct Outcome {
  double coverage_gap_s = 0.0;      ///< Mean per-orphan re-cover latency.
  double missed_mover_ratio = 0.0;  ///< Mover-cycles missed post-death.
  std::size_t orphans = 0;
  std::size_t takeovers = 0;
  std::uint64_t recovered = 0;  ///< Orphans retired from the queue.
};

core::FleetConfig fleet_config(core::TakeoverPolicy takeover) {
  core::FleetConfig cfg;
  cfg.controller.phase2_duration = util::msec(500);
  // Air time only on the reader timeline (no modeled compute charge);
  // every policy sees the identical fault-free prefix and death time.
  cfg.controller.charge_compute_time = false;
  // Independent sessions: every reader re-inventories its zone each cycle,
  // so the coverage gap is purely geometric — who can energize the
  // orphaned tags — not confounded by shared-flag decay.
  cfg.policy = core::SessionPolicy::kIndependent;
  cfg.takeover = takeover;
  cfg.resilience.suspect_after_failures = 1;
  cfg.resilience.down_after_failures = 2;
  return cfg;
}

/// Fault-free probe: the sim time at which cycle kDeathCycle begins — the
/// instant the outage is anchored to in the measured runs.
util::SimTime probe_death_time(std::uint64_t seed) {
  Strip strip(seed, util::SimTime{0});
  core::FleetController fleet(fleet_config(core::TakeoverPolicy::kNone),
                              strip.specs);
  fleet.run_cycles(kDeathCycle);
  // 1 ms *before* the cycle boundary: reader 0 runs first in the TDM
  // rotation, so the outage covers its entire next slice (anchoring just
  // after the boundary would let its Phase I — whose fault check happens
  // at execute start — slip through and re-sight every orphan).
  return strip.injectors[0]->now() - util::msec(1);
}

Outcome run_policy(core::TakeoverPolicy takeover, util::SimTime death_at,
                   std::uint64_t seed) {
  Strip strip(seed, death_at);
  core::FleetController fleet(fleet_config(takeover), strip.specs);
  auto sink = std::make_shared<GapSink>();
  fleet.pipeline().add_sink(sink);

  Outcome out;
  std::size_t last_cycle = 0;
  for (const core::FleetCycleReport& r : fleet.run_cycles(kCycles)) {
    out.takeovers += r.takeovers.size();
    last_cycle = r.cycle_index;
  }
  const util::SimTime run_end = strip.injectors[0]->now();
  out.recovered = fleet.recover_stats().recovered;

  // Orphans: every EPC whose last pre-death delivery came from reader 0.
  // Gap = death -> first post-death delivery (run end when never again).
  double gap_total = 0.0;
  for (const auto& [epc, deliveries] : sink->deliveries) {
    bool owned_by_dead = false;
    util::SimTime first_after{0};
    bool seen_after = false;
    for (const GapSink::Delivery& d : deliveries) {
      if (d.at < death_at) {
        owned_by_dead = d.source == 0;
      } else if (!seen_after) {
        first_after = d.at;
        seen_after = true;
      }
    }
    if (!owned_by_dead) continue;
    ++out.orphans;
    gap_total +=
        util::to_seconds((seen_after ? first_after : run_end) - death_at);
  }
  if (out.orphans > 0) {
    gap_total /= static_cast<double>(out.orphans);
  }
  out.coverage_gap_s = gap_total;

  // Movers: fraction of post-death fleet cycles with no delivery at all.
  std::size_t death_cycle = kCycles;
  for (const auto& [epc, deliveries] : sink->deliveries) {
    for (const GapSink::Delivery& d : deliveries) {
      if (d.at >= death_at) death_cycle = std::min(death_cycle, d.cycle);
    }
  }
  const std::size_t post_cycles = last_cycle + 1 - death_cycle;
  if (post_cycles > 0) {
    std::size_t missed = 0;
    for (std::size_t i = 0; i < kMovers; ++i) {
      std::vector<char> seen(post_cycles, 0);
      const auto it =
          sink->deliveries.find(util::Epc::from_serial(kMoverSerialBase + i));
      if (it != sink->deliveries.end()) {
        for (const GapSink::Delivery& d : it->second) {
          if (d.cycle >= death_cycle) seen[d.cycle - death_cycle] = 1;
        }
      }
      missed += static_cast<std::size_t>(
          std::count(seen.begin(), seen.end(), 0));
    }
    out.missed_mover_ratio = static_cast<double>(missed) /
                             static_cast<double>(post_cycles * kMovers);
  }
  return out;
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 6301;
  const util::SimTime death_at = probe_death_time(kSeed);
  std::printf("fleet failover — coverage gap vs takeover policy\n"
              "(%zu readers at %.0f m pitch / %.1f m radius, %zu statics "
              "per zone, %zu movers; reader 0 dies at %.2f s, %zu cycles)\n\n",
              kReaders, kPitch, kRadius, kTagsPerZone, kMovers,
              util::to_seconds(death_at), kCycles);

  const struct {
    core::TakeoverPolicy policy;
    const char* label;
  } kPolicies[] = {{core::TakeoverPolicy::kNone, "none"},
                   {core::TakeoverPolicy::kStaticNeighbor, "static"},
                   {core::TakeoverPolicy::kAdaptive, "adaptive"}};

  bench::BenchReport report("fleet_failover", kSeed);
  std::printf("%-9s  %12s  %13s  %8s  %10s  %10s\n", "policy", "gap (s)",
              "missed mover", "orphans", "takeovers", "recovered");
  std::vector<Outcome> outcomes;
  for (const auto& p : kPolicies) {
    const Outcome o = run_policy(p.policy, death_at, kSeed);
    outcomes.push_back(o);
    std::printf("%-9s  %12.2f  %12.1f%%  %8zu  %10zu  %10llu\n", p.label,
                o.coverage_gap_s, o.missed_mover_ratio * 100.0, o.orphans,
                o.takeovers, static_cast<unsigned long long>(o.recovered));
    const std::string suffix = std::string("_") + p.label;
    report.add("coverage_gap_s" + suffix, o.coverage_gap_s, "s");
    report.add("missed_mover_ratio" + suffix, o.missed_mover_ratio, "ratio");
    report.add("recovered" + suffix, static_cast<double>(o.recovered),
               "count");
  }

  const double gap_none = outcomes[0].coverage_gap_s;
  const double gap_adaptive = outcomes[2].coverage_gap_s;
  const double reduction =
      gap_adaptive > 0.0 ? gap_none / gap_adaptive : 0.0;
  report.add("coverage_gap_reduction", reduction, "ratio");
  std::printf("\ncoverage_gap_reduction (none / adaptive): %.2fx\n",
              reduction);
  std::printf("wrote %s\n", report.write().c_str());

  // CI gate: takeover must actually help.  Adaptive re-cover strictly
  // below the no-takeover baseline, and by at least 2x.
  if (!(gap_adaptive < gap_none) || reduction < 2.0) {
    std::fprintf(stderr,
                 "FAIL: adaptive takeover gap %.2f s not 2x below "
                 "no-takeover %.2f s\n",
                 gap_adaptive, gap_none);
    return 1;
  }
  return 0;
}
