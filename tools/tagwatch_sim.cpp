// tagwatch_sim — scenario-driven Tagwatch simulator CLI.
//
// Runs a complete two-phase deployment described by a key=value scenario
// file (or built-in defaults) and reports per-cycle behaviour, final IRRs,
// and optionally the last Phase II schedule as ROSpec XML.
//
// Usage:
//   tagwatch_sim [scenario.conf]
//
// Scenario keys (all optional):
//   tags            = 40          total tag count
//   movers          = 2           tags on the turntable/track
//   mover_speed     = 0.7         m/s
//   people          = 0           walking multipath reflectors
//   mode            = tagwatch    tagwatch | naive | read-all
//   planner.churn_threshold = 0.15  delta fraction of the scene above
//                                 which the incremental planner rebuilds
//                                 from scratch [0,1]
//   planner.threads = 1           worker threads of Phase-II candidate
//                                 generation (plans are bit-identical at
//                                 any value)
//   cycles          = 10
//   phase2_seconds  = 5
//   channels        = 1           1 or 16 (920–926 MHz plan)
//   seed            = 2017
//   pinned_targets  = <hex,hex>   always-scheduled EPCs
//   irr_top         = 10          rows in the final IRR table
//   export_schedule = false       print the last cycle's ROSpec XML
//   votes           = 1           Phase-I motion votes needed to mark a tag
//                                 mobile (raise to 2-3 for large multi-
//                                 antenna scenes: false votes compound)
//   k               = 8           mixture components per immobility model
//   assessor_threads = 1          worker threads (and shards) of Phase-I
//                                 ingestion [1,64] (cycles and journals
//                                 are bit-identical at any value)
//   record_journal  = <path>      journal every reader operation to a CSV
//                                 trace (replayable with replay_journal)
//   replay_journal  = <path>      replay a recorded trace instead of
//                                 simulating (world keys are ignored)
//   pipeline_stats  = false       print per-sink delivery accounting
//
// Fleet keys (multi-reader mode; see docs/API.md "Fleet and sessions").
// Setting fleet.readers >= 2 switches to a FleetController over a strip of
// overlapping zones; record_journal/replay_journal then act as path
// prefixes (<prefix>.reader<k>.csv per reader, <prefix>.fleet.csv for the
// fleet journal):
//   fleet.readers   = 1           reader count (>= 2 enables fleet mode)
//   fleet.pitch     = 4.0         zone spacing along the strip (m)
//   fleet.radius    = 3.0         zone radius (m); > pitch/2 overlaps seams
//   fleet.policy    = independent independent | shared | per-reader
//   fleet.session   = S1          Gen2 session (shared/base session)
//   fleet.target    = A           A | B inventoried target when not re-arming
//   fleet.dedup_ms  = 500         cross-reader dedup window (0 disables)
//   fleet.seam_tags = 0           extra static tags planted on each seam
//
// Fleet fault-tolerance keys (see docs/API.md "Fleet failure model").
// fault_injection=true in fleet mode wraps every reader in a per-reader
// fault injector (journals then carry the faults through the per-reader
// path prefixes and replay bit-exactly):
//   fleet.takeover     = adaptive  none | static | adaptive zone takeover
//   fleet.suspect_after = 2        consecutive failed cycles -> Suspect
//   fleet.down_after   = 3         consecutive failed cycles -> Down
//   fleet.probe_period = 2         probe a Down reader every N fleet cycles
//   fleet.probation    = 2         clean probes to restore Healthy
//   fleet.recover_capacity = 1024  bounded orphan re-cover queue size
//   fleet.fault.rate   = 0         per-execute failure probability [0,1]
//   fleet.fault.seed   = 99        fault schedule RNG seed (base; +r per
//                                  reader)
//   fleet.fault.reader = -1        reader killed by a scripted outage
//   fleet.fault.down_s = 0         outage start (sim seconds)
//   fleet.fault.up_s   = 0         outage end (0 = never recovers)
//   fleet.fault.reconnect_ms = 50  reconnect latency per faulted execute
//
// Fault-injection keys (flaky-reader drills; see docs/API.md "Failure
// model & degraded mode"):
//   fault_injection      = false  wrap the reader in a fault injector
//   fault_rate           = 0.1    per-execute failure probability [0,1]
//   fault_seed           = 99     fault schedule RNG seed
//   fault_drop_rate      = 0      per-reading drop probability [0,1]
//   fault_duplicate_rate = 0      per-reading duplicate probability [0,1]
//   fault_corrupt_rate   = 0      per-reading phase-noise probability [0,1]
//   fault_reconnect_ms   = 50     reconnect latency after a disconnect
//   retry_attempts       = 3      controller attempts per ROSpec [1,10]
//   degrade_after        = 3      K failed cycles -> read-all fallback
//   restore_after        = 3      M healthy cycles -> adaptive again
//                                 (these three apply to every reader's
//                                 controller in fleet mode too)
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "core/metrics.hpp"
#include "core/schedule_export.hpp"
#include "core/tagwatch.hpp"
#include "llrp/fault_injection.hpp"
#include "llrp/recording_reader_client.hpp"
#include "llrp/replay_reader_client.hpp"
#include "llrp/sim_reader_client.hpp"
#include "util/circular.hpp"
#include "util/config.hpp"
#include "util/stats.hpp"

using namespace tagwatch;

namespace {

core::ScheduleMode parse_mode(const std::string& mode) {
  if (mode == "tagwatch") return core::ScheduleMode::kGreedyCover;
  if (mode == "naive") return core::ScheduleMode::kNaiveEpcMasks;
  if (mode == "read-all") return core::ScheduleMode::kReadAll;
  throw std::invalid_argument("unknown mode: " + mode +
                              " (expected tagwatch|naive|read-all)");
}

/// Every key a scenario file may contain.  Unknown keys are rejected with
/// this list so a typo ("cycels = 10") fails loudly instead of silently
/// running defaults.
constexpr const char* kAcceptedKeys[] = {
    "tags", "movers", "mover_speed", "people", "mode", "cycles",
    "phase2_seconds", "channels", "seed", "pinned_targets", "irr_top",
    "export_schedule", "votes", "k", "assessor_threads", "record_journal",
    "replay_journal",
    "pipeline_stats", "fault_injection", "fault_rate", "fault_seed",
    "fault_drop_rate", "fault_duplicate_rate", "fault_corrupt_rate",
    "fault_reconnect_ms", "retry_attempts", "degrade_after",
    "restore_after", "planner.churn_threshold", "planner.threads",
    "fleet.readers", "fleet.pitch", "fleet.radius", "fleet.policy",
    "fleet.session", "fleet.target", "fleet.dedup_ms", "fleet.seam_tags",
    "fleet.takeover", "fleet.suspect_after", "fleet.down_after",
    "fleet.probe_period", "fleet.probation", "fleet.recover_capacity",
    "fleet.fault.rate", "fleet.fault.seed", "fleet.fault.reader",
    "fleet.fault.down_s", "fleet.fault.up_s", "fleet.fault.reconnect_ms"};

void reject_unknown_keys(const util::KeyValueConfig& cfg) {
  for (const std::string& key : cfg.keys()) {
    const bool known =
        std::find_if(std::begin(kAcceptedKeys), std::end(kAcceptedKeys),
                     [&key](const char* k) { return key == k; }) !=
        std::end(kAcceptedKeys);
    if (known) continue;
    std::string accepted;
    for (const char* k : kAcceptedKeys) {
      if (!accepted.empty()) accepted += ", ";
      accepted += k;
    }
    throw std::invalid_argument("unknown scenario key '" + key +
                                "'; accepted keys: " + accepted);
  }
}

/// get_int_or with a range check; the getter itself rejects values that
/// are not whole integers, naming the key.
std::int64_t int_in(const util::KeyValueConfig& cfg, const std::string& key,
                    std::int64_t fallback, std::int64_t lo, std::int64_t hi) {
  const std::int64_t v = cfg.get_int_or(key, fallback);
  if (v < lo || v > hi) {
    throw std::invalid_argument(
        "scenario key '" + key + "' = " + std::to_string(v) +
        " out of range; accepted: [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "]");
  }
  return v;
}

double double_in(const util::KeyValueConfig& cfg, const std::string& key,
                 double fallback, double lo, double hi) {
  const double v = cfg.get_double_or(key, fallback);
  if (v < lo || v > hi) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "scenario key '%s' = %g out of range; accepted: [%g, %g]",
                  key.c_str(), v, lo, hi);
    throw std::invalid_argument(msg);
  }
  return v;
}

gen2::InvFlag parse_inv_target(const std::string& target) {
  if (target == "A") return gen2::InvFlag::kA;
  if (target == "B") return gen2::InvFlag::kB;
  throw std::invalid_argument("unknown fleet.target: " + target +
                              " (expected A|B)");
}

/// The controller settings both paths share; the fleet path adds its
/// query target on top.
core::TagwatchConfig controller_config(const util::KeyValueConfig& cfg) {
  core::TagwatchConfig c;
  c.mode = parse_mode(cfg.get_or("mode", "tagwatch"));
  c.planner.churn_threshold =
      double_in(cfg, "planner.churn_threshold", 0.15, 0.0, 1.0);
  c.planner.threads =
      static_cast<std::size_t>(int_in(cfg, "planner.threads", 1, 1, 64));
  c.phase2_duration = util::sec(int_in(cfg, "phase2_seconds", 5, 1, 3600));
  c.pinned_targets = cfg.get_epc_list("pinned_targets");
  c.assessor.mobile_vote_threshold =
      static_cast<std::size_t>(int_in(cfg, "votes", 1, 1, 100));
  c.assessor.immobility.max_components =
      static_cast<std::size_t>(int_in(cfg, "k", 8, 1, 64));
  // Any value is bit-identical to 1 (the differential tests enforce it);
  // raising it only buys ingestion throughput on large scenes.
  c.assessor_threads =
      static_cast<std::size_t>(int_in(cfg, "assessor_threads", 1, 1, 64));
  c.resilience.retry.max_attempts =
      static_cast<std::size_t>(int_in(cfg, "retry_attempts", 3, 1, 10));
  c.resilience.degrade_after_failures =
      static_cast<std::size_t>(int_in(cfg, "degrade_after", 3, 1, 100));
  c.resilience.restore_after_healthy =
      static_cast<std::size_t>(int_in(cfg, "restore_after", 3, 1, 100));
  return c;
}

/// Multi-reader path: a strip of overlapping zones under a
/// FleetController.  Entered when fleet.readers >= 2; shares the scalar
/// keys (tags, movers, cycles, seed, ...) with the single-reader path.
int run_fleet(const util::KeyValueConfig& cfg) {
  const auto n_readers =
      static_cast<std::size_t>(int_in(cfg, "fleet.readers", 2, 2, 16));
  const double pitch = double_in(cfg, "fleet.pitch", 4.0, 0.5, 1000.0);
  const double radius = double_in(cfg, "fleet.radius", 3.0, 0.5, 1000.0);
  const core::SessionPolicy policy =
      core::session_policy_from_string(cfg.get_or("fleet.policy",
                                                  "independent"));
  const gen2::Session session =
      gen2::session_from_string(cfg.get_or("fleet.session", "S1"));
  const gen2::InvFlag target =
      parse_inv_target(cfg.get_or("fleet.target", "A"));
  const auto dedup_window =
      util::msec(int_in(cfg, "fleet.dedup_ms", 500, 0, 3600000));
  const auto seam_tags =
      static_cast<std::size_t>(int_in(cfg, "fleet.seam_tags", 0, 0, 1000));

  const auto n_tags =
      static_cast<std::size_t>(int_in(cfg, "tags", 40, 1, 100000));
  const auto n_movers = static_cast<std::size_t>(
      int_in(cfg, "movers", 2, 0, static_cast<std::int64_t>(n_tags)));
  const double mover_speed = double_in(cfg, "mover_speed", 0.7, 0.0, 100.0);
  const auto cycles =
      static_cast<std::size_t>(int_in(cfg, "cycles", 10, 1, 1000000));
  const auto seed = static_cast<std::uint64_t>(int_in(
      cfg, "seed", 2017, 0, std::numeric_limits<std::int64_t>::max()));

  // Fault-tolerance knobs (defaults mirror FleetResilienceConfig).
  const core::TakeoverPolicy takeover = core::takeover_policy_from_string(
      cfg.get_or("fleet.takeover", "adaptive"));
  const double fault_rate = double_in(cfg, "fleet.fault.rate", 0.0, 0.0, 1.0);
  const std::int64_t fault_reader =
      int_in(cfg, "fleet.fault.reader", -1, -1, 15);
  const double fault_down_s =
      double_in(cfg, "fleet.fault.down_s", 0.0, 0.0, 1e9);
  const double fault_up_s = double_in(cfg, "fleet.fault.up_s", 0.0, 0.0, 1e9);
  const bool inject_faults = cfg.get_bool_or("fault_injection", false) ||
                             fault_rate > 0.0 || fault_reader >= 0;

  // ------------------------------------------------------------- world
  // Statics round-robin across the zone centers, extra statics on every
  // seam, movers orbiting the middle of the strip so they cross zones.
  sim::World world;
  util::Rng rng(seed);
  const double strip_mid = static_cast<double>(n_readers - 1) * pitch / 2.0;
  for (std::size_t i = 0; i < n_tags; ++i) {
    sim::SimTag tag;
    tag.epc = util::Epc::random(rng);
    if (i < n_movers) {
      tag.motion = std::make_shared<sim::CircularTrack>(
          util::Vec3{strip_mid, 0, 0}, pitch * 0.6, mover_speed,
          rng.uniform(0.0, util::kTwoPi));
    } else {
      const double cx = static_cast<double>((i - n_movers) % n_readers) * pitch;
      tag.motion = std::make_shared<sim::StaticMotion>(util::Vec3{
          cx + rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 0.0});
    }
    tag.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
    world.add_tag(std::move(tag));
  }
  for (std::size_t r = 0; r + 1 < n_readers; ++r) {
    const double seam_x = (static_cast<double>(r) + 0.5) * pitch;
    for (std::size_t i = 0; i < seam_tags; ++i) {
      sim::SimTag tag;
      tag.epc = util::Epc::random(rng);
      tag.motion = std::make_shared<sim::StaticMotion>(
          util::Vec3{seam_x, rng.uniform(-0.3, 0.3), 0.0});
      tag.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
      world.add_tag(std::move(tag));
    }
  }

  // ----------------------------------------------------------- readers
  const std::int64_t channels = int_in(cfg, "channels", 1, 1, 16);
  rf::RfChannel channel(channels == 16
                            ? rf::ChannelPlan::china_920_926()
                            : rf::ChannelPlan::single(920.625e6));
  auto field = std::make_shared<gen2::TagFlagField>(
      gen2::SessionTiming::spec_default());
  const std::string record_path = cfg.get_or("record_journal", "");
  const std::string replay_path = cfg.get_or("replay_journal", "");
  std::vector<std::unique_ptr<llrp::SimReaderClient>> sims;
  std::vector<std::unique_ptr<llrp::FaultInjectingReaderClient>> injectors;
  std::vector<std::unique_ptr<llrp::RecordingReaderClient>> recorders;
  std::vector<std::unique_ptr<llrp::ReplayReaderClient>> replayers;
  std::vector<core::FleetReaderSpec> specs;
  for (std::size_t r = 0; r < n_readers; ++r) {
    const double cx = static_cast<double>(r) * pitch;
    sim::Zone zone{"zone-" + std::to_string(r), {cx, 0, 0}, radius};
    llrp::ReaderClient* client = nullptr;
    if (!replay_path.empty()) {
      // A replayed trace already contains its faults (X records): no
      // injector on this path, ever.
      const std::string path =
          replay_path + ".reader" + std::to_string(r) + ".csv";
      replayers.push_back(std::make_unique<llrp::ReplayReaderClient>(
          llrp::ReaderJournal::load(path)));
      client = replayers.back().get();
      std::printf("replaying reader %zu from %s (%zu operations)\n", r,
                  path.c_str(), replayers.back()->remaining());
    } else {
      gen2::ReaderConfig rc;
      rc.coverage = zone;
      sims.push_back(std::make_unique<llrp::SimReaderClient>(
          gen2::LinkTiming(gen2::LinkParams::paper_testbed()), rc, world,
          channel, std::vector<rf::Antenna>{{1, {cx, 0, 2}, 8.0}},
          seed + 10 + r, field));
      client = sims.back().get();
      if (inject_faults) {
        // Stack order sim -> injector -> recorder: the recorder journals
        // the faults (X records) under this reader's path prefix, so a
        // faulted fleet replays bit-exactly.
        llrp::FaultPlan plan;
        plan.seed = static_cast<std::uint64_t>(int_in(
                        cfg, "fleet.fault.seed", 99, 0,
                        std::numeric_limits<std::int64_t>::max())) +
                    r;
        plan.execute_failure_probability = fault_rate;
        plan.weight_disconnect = 0.3;
        plan.weight_partial_report = 0.3;
        plan.reconnect_latency = util::msec(
            int_in(cfg, "fleet.fault.reconnect_ms", 50, 0, 60000));
        if (fault_reader >= 0 &&
            static_cast<std::size_t>(fault_reader) == r &&
            (fault_up_s <= 0.0 || fault_up_s > fault_down_s)) {
          llrp::OutageWindow outage;
          outage.from =
              util::msec(static_cast<std::int64_t>(fault_down_s * 1000.0));
          if (fault_up_s > 0.0) {
            outage.until =
                util::msec(static_cast<std::int64_t>(fault_up_s * 1000.0));
          }
          plan.outages.push_back(outage);
        }
        injectors.push_back(std::make_unique<llrp::FaultInjectingReaderClient>(
            *client, plan));
        client = injectors.back().get();
      }
      if (!record_path.empty()) {
        recorders.push_back(
            std::make_unique<llrp::RecordingReaderClient>(*client));
        client = recorders.back().get();
      }
    }
    specs.push_back({client, zone});
  }

  // -------------------------------------------------------------- fleet
  core::FleetConfig fcfg;
  fcfg.controller = controller_config(cfg);
  fcfg.controller.query_target = target;
  fcfg.policy = policy;
  fcfg.shared_session = session;
  fcfg.dedup_window = dedup_window;
  fcfg.takeover = takeover;
  fcfg.resilience.suspect_after_failures =
      static_cast<std::size_t>(int_in(cfg, "fleet.suspect_after", 2, 1, 100));
  fcfg.resilience.down_after_failures =
      static_cast<std::size_t>(int_in(cfg, "fleet.down_after", 3, 1, 100));
  fcfg.resilience.probe_period =
      static_cast<std::size_t>(int_in(cfg, "fleet.probe_period", 2, 1, 100));
  fcfg.resilience.probation_cycles =
      static_cast<std::size_t>(int_in(cfg, "fleet.probation", 2, 1, 100));
  fcfg.resilience.recover_queue_capacity = static_cast<std::size_t>(
      int_in(cfg, "fleet.recover_capacity", 1024, 1, 1000000));
  core::FleetController fleet(fcfg, specs);

  // The fleet pipeline has no sinks until the application hangs one on it;
  // a counting sink gives the stats table its per-reader source rows.
  const bool pipeline_stats = cfg.get_bool_or("pipeline_stats", false);
  if (pipeline_stats) {
    fleet.pipeline().add_sink(std::make_shared<core::CallbackSink>(
        "app", [](const rf::TagReading&) {}));
  }

  std::printf("\nfleet: %zu readers, policy %s, session %s, target %s, "
              "dedup %.0f ms\n",
              n_readers, core::to_string(policy), gen2::to_string(session),
              target == gen2::InvFlag::kA ? "A" : "B",
              util::to_millis(dedup_window));
  std::printf("\n%5s  %9s  %10s  %11s  %7s  %9s\n", "cycle", "readings",
              "delivered", "duplicates", "dup %", "handoffs");
  std::vector<core::FleetCycleReport> reports;
  for (std::size_t c = 0; c < cycles; ++c) {
    reports.push_back(fleet.run_cycle());
    const core::FleetCycleReport& r = reports.back();
    std::printf("%5zu  %9zu  %10zu  %11zu  %6.2f%%  %9zu\n", r.cycle_index,
                r.readings_total, r.delivered_total, r.duplicates_total,
                r.cross_reader_dup_ratio() * 100.0, r.handoffs.size());
  }

  // --------------------------------------------------------- reporting
  std::printf("\n%-10s  %-10s  %10s  %11s  %-9s  %7s  %6s  %6s\n", "reader",
              "zone", "delivered", "duplicates", "state", "skipped", "probes",
              "faults");
  for (std::size_t r = 0; r < n_readers; ++r) {
    std::size_t delivered = 0;
    std::size_t duplicates = 0;
    std::size_t skipped = 0;
    std::size_t probes = 0;
    for (const core::FleetCycleReport& report : reports) {
      delivered += report.readers[r].delivered;
      duplicates += report.readers[r].duplicates;
      skipped += report.readers[r].skipped ? 1u : 0u;
      probes += report.readers[r].probe ? 1u : 0u;
    }
    const core::FleetReaderCycle& last = reports.back().readers[r];
    std::printf("reader %-3zu  %-10s  %10zu  %11zu  %-9s  %7zu  %6zu  %6llu\n",
                r, specs[r].zone.name.c_str(), delivered, duplicates,
                core::to_string(last.state), skipped, probes,
                static_cast<unsigned long long>(last.health.faults_total()));
  }

  std::size_t downs_total = 0;
  std::size_t takeovers_total = 0;
  std::size_t recoveries_total = 0;
  for (const core::FleetCycleReport& report : reports) {
    downs_total += report.downs.size();
    takeovers_total += report.takeovers.size();
    recoveries_total += report.recoveries.size();
  }
  if (downs_total + takeovers_total + recoveries_total > 0 ||
      inject_faults) {
    const core::RecoverStats rs = fleet.recover_stats();
    std::printf(
        "\nfleet health: %zu down events, %zu takeovers, %zu recoveries; "
        "re-cover queue: %llu enqueued, %llu recovered, %llu dropped, "
        "%zu pending\n",
        downs_total, takeovers_total, recoveries_total,
        static_cast<unsigned long long>(rs.enqueued),
        static_cast<unsigned long long>(rs.recovered),
        static_cast<unsigned long long>(rs.dropped), rs.pending);
    for (const core::FleetCycleReport& report : reports) {
      for (const llrp::FleetDownRecord& d : report.downs) {
        std::printf("  cycle %zu: reader %zu (%s) DOWN after %zu failures\n",
                    d.cycle, d.reader, d.zone.c_str(),
                    d.consecutive_failures);
      }
      for (const llrp::FleetTakeoverRecord& t : report.takeovers) {
        std::printf("  cycle %zu: reader %zu covers for %zu (radius %.3f m)\n",
                    t.cycle, t.to_reader, t.from_reader,
                    static_cast<double>(t.radius_mm) / 1000.0);
      }
      for (const llrp::FleetRecoverRecord& rec : report.recoveries) {
        std::printf("  cycle %zu: reader %zu RECOVERED after %zu cycles\n",
                    rec.cycle, rec.reader, rec.down_for_cycles);
      }
    }
  }

  std::size_t handoffs_total = 0;
  for (const core::FleetCycleReport& report : reports) {
    handoffs_total += report.handoffs.size();
  }
  if (handoffs_total > 0) {
    std::printf("\n%zu zone handoffs (first 10):\n", handoffs_total);
    std::size_t shown = 0;
    for (const core::FleetCycleReport& report : reports) {
      for (const llrp::FleetHandoffRecord& h : report.handoffs) {
        if (shown++ >= 10) break;
        std::printf("  %-26s  reader %zu -> %zu at %.3f s\n",
                    h.epc.to_hex().substr(0, 24).c_str(), h.from_reader,
                    h.to_reader, util::to_seconds(h.at));
      }
    }
  }

  if (pipeline_stats) {
    std::printf("\n%-10s  %7s  %10s  %8s  %12s\n", "sink", "source",
                "delivered", "dropped", "mean us/read");
    for (const core::SinkStats& s : fleet.pipeline().stats()) {
      std::printf("%-10s  %7zu  %10llu  %8llu  %12.3f\n", s.name.c_str(),
                  s.source_id, static_cast<unsigned long long>(s.delivered),
                  static_cast<unsigned long long>(s.dropped),
                  s.mean_dispatch_us());
    }
  }

  std::printf("\nfleet journal: %zu records, digest %016llx\n",
              fleet.journal().size(),
              static_cast<unsigned long long>(
                  llrp::fleet_journal_digest(fleet.journal())));
  if (!record_path.empty() && replay_path.empty()) {
    for (std::size_t r = 0; r < recorders.size(); ++r) {
      const std::string path =
          record_path + ".reader" + std::to_string(r) + ".csv";
      recorders[r]->journal().save(path);
      std::printf("recorded reader %zu: %zu operations to %s (digest "
                  "%016llx)\n",
                  r, recorders[r]->journal().size(), path.c_str(),
                  static_cast<unsigned long long>(
                      llrp::journal_digest(recorders[r]->journal())));
    }
    fleet.journal().save(record_path + ".fleet.csv");
    std::printf("recorded fleet journal to %s.fleet.csv\n",
                record_path.c_str());
  }
  return 0;
}

}  // namespace

int run(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tagwatch_sim: %s\n", e.what());
    return 1;
  }
}

int run(int argc, char** argv) {
  util::KeyValueConfig cfg;
  if (argc > 1) {
    cfg = util::KeyValueConfig::load(argv[1]);
    std::printf("scenario: %s\n", argv[1]);
  } else {
    std::printf("scenario: built-in defaults (pass a .conf path to change)\n");
  }

  reject_unknown_keys(cfg);

  if (int_in(cfg, "fleet.readers", 1, 1, 16) >= 2) {
    return run_fleet(cfg);
  }

  const auto n_tags =
      static_cast<std::size_t>(int_in(cfg, "tags", 40, 1, 100000));
  const auto n_movers = static_cast<std::size_t>(
      int_in(cfg, "movers", 2, 0, static_cast<std::int64_t>(n_tags)));
  const double mover_speed = double_in(cfg, "mover_speed", 0.7, 0.0, 100.0);
  const auto n_people =
      static_cast<std::size_t>(int_in(cfg, "people", 0, 0, 1000));
  const auto cycles =
      static_cast<std::size_t>(int_in(cfg, "cycles", 10, 1, 1000000));
  const auto seed = static_cast<std::uint64_t>(int_in(
      cfg, "seed", 2017, 0, std::numeric_limits<std::int64_t>::max()));
  const std::int64_t channels = int_in(cfg, "channels", 1, 1, 16);
  if (channels != 1 && channels != 16) {
    throw std::invalid_argument("scenario key 'channels' = " +
                                std::to_string(channels) +
                                " unsupported; accepted: 1 or 16");
  }
  const bool sixteen_channels = channels == 16;
  const auto irr_top =
      static_cast<std::size_t>(int_in(cfg, "irr_top", 10, 0, 100000));

  // ------------------------------------------------------------- world
  sim::World world;
  util::Rng rng(seed);
  std::vector<util::Epc> movers;
  for (std::size_t i = 0; i < n_tags; ++i) {
    sim::SimTag tag;
    tag.epc = util::Epc::random(rng);
    if (i < n_movers) {
      tag.motion = std::make_shared<sim::CircularTrack>(
          util::Vec3{0.5, 0.5, 0.0}, 0.2, mover_speed,
          rng.uniform(0.0, util::kTwoPi));
      movers.push_back(tag.epc);
    } else {
      tag.motion = std::make_shared<sim::StaticMotion>(
          util::Vec3{rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0});
    }
    tag.tag_phase_rad = rng.uniform(0.0, util::kTwoPi);
    world.add_tag(std::move(tag));
  }
  util::Rng walk_rng = rng.fork();
  const auto horizon = util::sec(static_cast<std::int64_t>(cycles) * 10);
  for (std::size_t p = 0; p < n_people; ++p) {
    world.add_reflector({std::make_shared<sim::RandomWaypoint>(
                             util::Vec3{-4, -4, 0}, util::Vec3{4, 4, 0}, 1.0,
                             horizon, walk_rng, util::sec(2)),
                         0.3});
  }

  // ------------------------------------------------------------ reader
  rf::RfChannel channel(sixteen_channels
                            ? rf::ChannelPlan::china_920_926()
                            : rf::ChannelPlan::single(920.625e6));
  std::vector<rf::Antenna> antennas{{1, {-5, -5, 0}, 8.0},
                                    {2, {5, -5, 0}, 8.0},
                                    {3, {-5, 5, 0}, 8.0},
                                    {4, {5, 5, 0}, 8.0}};
  llrp::SimReaderClient sim_client(
      gen2::LinkTiming(gen2::LinkParams::paper_testbed()),
      gen2::ReaderConfig{}, world, channel, antennas, seed + 1);

  // Transport selection: simulate, simulate-and-record, or replay a trace.
  // The controller only ever sees the abstract interface.  With
  // fault_injection the stack is sim -> injector -> recorder, so the
  // journal captures the faults and a replay reproduces them bit-exactly
  // (a replayed trace already contains its faults — no injector then).
  const std::string record_path = cfg.get_or("record_journal", "");
  const std::string replay_path = cfg.get_or("replay_journal", "");
  const bool inject_faults = cfg.get_bool_or("fault_injection", false);
  std::unique_ptr<llrp::FaultInjectingReaderClient> injector;
  std::unique_ptr<llrp::RecordingReaderClient> recorder;
  std::unique_ptr<llrp::ReplayReaderClient> replayer;
  llrp::ReaderClient* client = &sim_client;
  if (!replay_path.empty()) {
    llrp::ReaderJournal journal = llrp::ReaderJournal::load(replay_path);
    const std::uint64_t digest = llrp::journal_digest(journal);
    replayer = std::make_unique<llrp::ReplayReaderClient>(std::move(journal));
    client = replayer.get();
    std::printf(
        "replaying journal: %s (%zu operations, backend %s, digest "
        "%016llx)\n",
        replay_path.c_str(), replayer->remaining(),
        replayer->capabilities().model.c_str(),
        static_cast<unsigned long long>(digest));
  } else {
    if (inject_faults) {
      llrp::FaultPlan plan;
      plan.seed = static_cast<std::uint64_t>(
          int_in(cfg, "fault_seed", 99, 0,
                 std::numeric_limits<std::int64_t>::max()));
      plan.execute_failure_probability =
          double_in(cfg, "fault_rate", 0.1, 0.0, 1.0);
      plan.weight_disconnect = 0.3;
      plan.weight_partial_report = 0.3;
      plan.reading_drop_rate = double_in(cfg, "fault_drop_rate", 0.0, 0.0, 1.0);
      plan.reading_duplicate_rate =
          double_in(cfg, "fault_duplicate_rate", 0.0, 0.0, 1.0);
      plan.phase_corruption_rate =
          double_in(cfg, "fault_corrupt_rate", 0.0, 0.0, 1.0);
      plan.reconnect_latency =
          util::msec(int_in(cfg, "fault_reconnect_ms", 50, 0, 60000));
      injector = std::make_unique<llrp::FaultInjectingReaderClient>(sim_client,
                                                                    plan);
      client = injector.get();
    }
    if (!record_path.empty()) {
      recorder = std::make_unique<llrp::RecordingReaderClient>(*client);
      client = recorder.get();
    }
  }

  // ---------------------------------------------------------- tagwatch
  const core::TagwatchConfig twcfg = controller_config(cfg);
  core::TagwatchController ctl(twcfg, *client);

  core::IrrMonitor monitor(twcfg.phase2_duration);
  ctl.set_read_listener(
      [&monitor](const rf::TagReading& r) { monitor.record(r); });

  std::printf("\n%5s  %-10s  %7s  %7s  %9s  %12s  %10s  %5s  %7s\n", "cycle",
              "mode", "scene", "targets", "bitmasks", "phase2 reads",
              "gap (ms)", "fails", "retries");
  core::CycleReport last_report;
  std::uint64_t readings_total = 0, read_all_cycles = 0;
  gen2::RoundStats slot_totals;
  for (std::size_t c = 0; c < cycles; ++c) {
    const core::CycleReport r = ctl.run_cycle();
    readings_total += r.phase1_readings + r.phase2_readings;
    if (r.read_all_fallback) ++read_all_cycles;
    slot_totals += r.slot_totals;
    const std::string gap =
        r.interphase_gap
            ? util::format_fixed(util::to_millis(*r.interphase_gap), 1)
            : std::string("-");
    const char* mode_label = r.degraded_mode     ? "degraded"
                             : r.read_all_fallback ? "read-all"
                                                   : "selective";
    std::printf("%5zu  %-10s  %7zu  %7zu  %9zu  %12zu  %10s  %5zu  %7zu\n",
                r.cycle_index, mode_label, r.scene.size(), r.targets.size(),
                r.schedule.selections.size(), r.phase2_readings, gap.c_str(),
                r.execute_failures, r.retries);
    last_report = r;
  }

  // --------------------------------------------------------- reporting
  const util::SimTime now = client->now();
  std::printf("\ntop per-tag IRRs over the last %2.0f s window:\n",
              util::to_seconds(monitor.window()));
  std::printf("%-26s  %8s  %s\n", "EPC", "IRR(Hz)", "role");
  std::size_t shown = 0;
  for (const auto& [epc, irr] : monitor.snapshot(now)) {
    if (shown++ >= irr_top) break;
    const bool mover =
        std::find(movers.begin(), movers.end(), epc) != movers.end();
    std::printf("%-26s  %8.2f  %s\n", (epc.to_hex().substr(0, 24)).c_str(),
                irr, mover ? "mobile" : "static");
  }

  if (cfg.get_bool_or("pipeline_stats", false)) {
    std::printf("\npipeline: %llu readings over %zu cycles "
                "(%llu read-all), %zu slots (%zu empty, %zu collided)\n",
                static_cast<unsigned long long>(readings_total), cycles,
                static_cast<unsigned long long>(read_all_cycles),
                slot_totals.slots, slot_totals.empty_slots,
                slot_totals.collision_slots);
    std::printf("%-10s  %10s  %8s  %12s\n", "sink", "delivered", "dropped",
                "mean us/read");
    for (const auto& sink : ctl.pipeline().stats()) {
      std::printf("%-10s  %10llu  %8llu  %12.3f\n", sink.name.c_str(),
                  static_cast<unsigned long long>(sink.delivered),
                  static_cast<unsigned long long>(sink.dropped),
                  sink.mean_dispatch_us());
    }
  }

  if (inject_faults || ctl.health().faults_total() > 0) {
    const core::HealthMetrics& h = ctl.health();
    std::printf(
        "\nreader health: %llu faults (%llu timeout, %llu disconnect, "
        "%llu protocol, %llu partial, %llu antenna-lost)\n",
        static_cast<unsigned long long>(h.faults_total()),
        static_cast<unsigned long long>(h.timeouts),
        static_cast<unsigned long long>(h.disconnects),
        static_cast<unsigned long long>(h.protocol_errors),
        static_cast<unsigned long long>(h.partial_reports),
        static_cast<unsigned long long>(h.antenna_losses));
    std::printf(
        "  %llu retries, %llu giveups, %.1f ms in backoff, "
        "%llu readings salvaged from %llu partial reports\n",
        static_cast<unsigned long long>(h.retries),
        static_cast<unsigned long long>(h.giveups),
        util::to_millis(h.backoff_total),
        static_cast<unsigned long long>(h.salvaged_readings),
        static_cast<unsigned long long>(h.partial_salvages));
    std::printf(
        "  degraded: %llu entries, %llu exits, %llu cycles spent degraded; "
        "%llu watchdog trips; %zu antennas quarantined\n",
        static_cast<unsigned long long>(h.degraded_entries),
        static_cast<unsigned long long>(h.degraded_exits),
        static_cast<unsigned long long>(h.degraded_cycles),
        static_cast<unsigned long long>(h.watchdog_trips),
        ctl.quarantined_antennas().size());
    if (injector != nullptr) {
      const llrp::InjectionStats& s = injector->stats();
      std::printf(
          "  injected: %llu/%llu executes faulted; readings: %llu dropped, "
          "%llu duplicated, %llu phase-corrupted\n",
          static_cast<unsigned long long>(s.injected_faults_total()),
          static_cast<unsigned long long>(s.executes),
          static_cast<unsigned long long>(s.dropped_readings),
          static_cast<unsigned long long>(s.duplicated_readings),
          static_cast<unsigned long long>(s.corrupted_readings));
    }
  }

  if (cfg.get_bool_or("export_schedule", false) &&
      !last_report.schedule.selections.empty()) {
    std::printf("\nlast Phase II schedule as ROSpec XML:\n%s",
                core::schedule_to_xml(last_report.schedule).c_str());
  }

  if (recorder != nullptr) {
    recorder->journal().save(record_path);
    std::printf("\nrecorded %zu reader operations to %s (digest %016llx)\n",
                recorder->journal().size(), record_path.c_str(),
                static_cast<unsigned long long>(
                    llrp::journal_digest(recorder->journal())));
  }
  return 0;
}
