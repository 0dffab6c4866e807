#include "core/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace tagwatch::core {

const char* to_string(SessionPolicy policy) {
  switch (policy) {
    case SessionPolicy::kIndependent: return "independent";
    case SessionPolicy::kShared: return "shared";
    case SessionPolicy::kPerReader: return "per-reader";
  }
  return "unknown";
}

SessionPolicy session_policy_from_string(std::string_view name) {
  if (name == "independent") return SessionPolicy::kIndependent;
  if (name == "shared") return SessionPolicy::kShared;
  if (name == "per-reader") return SessionPolicy::kPerReader;
  throw std::invalid_argument("unknown session policy '" + std::string(name) +
                              "' (expected independent|shared|per-reader)");
}

const char* to_string(TakeoverPolicy policy) {
  switch (policy) {
    case TakeoverPolicy::kNone: return "none";
    case TakeoverPolicy::kStaticNeighbor: return "static";
    case TakeoverPolicy::kAdaptive: return "adaptive";
  }
  return "unknown";
}

TakeoverPolicy takeover_policy_from_string(std::string_view name) {
  if (name == "none") return TakeoverPolicy::kNone;
  if (name == "static") return TakeoverPolicy::kStaticNeighbor;
  if (name == "adaptive") return TakeoverPolicy::kAdaptive;
  throw std::invalid_argument("unknown takeover policy '" + std::string(name) +
                              "' (expected none|static|adaptive)");
}

// --------------------------------------------------------------- FleetHealth

FleetHealth::FleetHealth(std::size_t readers, FleetResilienceConfig config)
    : config_(config), entries_(readers) {
  config_.probe_period = std::max<std::size_t>(config_.probe_period, 1);
  config_.error_window = std::max<std::size_t>(config_.error_window, 1);
  for (Entry& e : entries_) {
    e.window.assign(config_.error_window, 0);
  }
}

bool FleetHealth::rate_high(const Entry& e) const {
  if (e.window_filled < config_.error_window) return false;
  return static_cast<double>(e.window_errors) >=
         config_.error_rate_threshold *
             static_cast<double>(config_.error_window);
}

void FleetHealth::push_window(Entry& e, bool errored) {
  if (e.window_filled == e.window.size()) {
    if (e.window[e.window_pos] != 0) --e.window_errors;
  } else {
    ++e.window_filled;
  }
  e.window[e.window_pos] = errored ? 1 : 0;
  if (errored) ++e.window_errors;
  e.window_pos = (e.window_pos + 1) % e.window.size();
}

bool FleetHealth::should_run(std::size_t reader) const {
  const Entry& e = entries_.at(reader);
  if (e.state != ReaderState::kDown) return true;
  return e.skip_count + 1 >= config_.probe_period;
}

void FleetHealth::observe_skip(std::size_t reader) {
  Entry& e = entries_.at(reader);
  ++e.skip_count;
  if (e.state == ReaderState::kDown || e.state == ReaderState::kProbation) {
    ++e.down_cycles;
  }
}

std::size_t FleetHealth::down_count() const {
  std::size_t n = 0;
  for (const Entry& e : entries_) {
    if (e.state == ReaderState::kDown || e.state == ReaderState::kProbation) {
      ++n;
    }
  }
  return n;
}

FleetHealth::Transition FleetHealth::observe(std::size_t reader, bool failed,
                                             bool errored) {
  Entry& e = entries_.at(reader);
  e.skip_count = 0;
  if (e.state == ReaderState::kDown || e.state == ReaderState::kProbation) {
    ++e.down_cycles;
  }
  push_window(e, errored);

  switch (e.state) {
    case ReaderState::kHealthy:
    case ReaderState::kSuspect: {
      if (failed) {
        ++e.consecutive_failures;
        if (e.consecutive_failures >= config_.down_after_failures) {
          e.state = ReaderState::kDown;
          e.down_cycles = 0;
          e.healthy_streak = 0;
          return Transition::kWentDown;
        }
        if (e.state == ReaderState::kHealthy &&
            e.consecutive_failures >= config_.suspect_after_failures) {
          e.state = ReaderState::kSuspect;
          return Transition::kWentSuspect;
        }
        return Transition::kNone;
      }
      e.consecutive_failures = 0;
      if (e.state == ReaderState::kHealthy && rate_high(e)) {
        e.state = ReaderState::kSuspect;
        return Transition::kWentSuspect;
      }
      if (e.state == ReaderState::kSuspect && !rate_high(e)) {
        e.state = ReaderState::kHealthy;
      }
      return Transition::kNone;
    }
    case ReaderState::kDown: {
      if (failed) return Transition::kNone;  // Probe failed: stay Down.
      e.state = ReaderState::kProbation;
      e.healthy_streak = 1;
      break;
    }
    case ReaderState::kProbation: {
      if (failed) {
        // Relapse: probation revoked, back to probe cadence.
        e.state = ReaderState::kDown;
        e.healthy_streak = 0;
        return Transition::kNone;
      }
      ++e.healthy_streak;
      break;
    }
  }
  if (e.healthy_streak >= config_.probation_cycles) {
    e.state = ReaderState::kHealthy;
    e.consecutive_failures = 0;
    e.healthy_streak = 0;
    return Transition::kRecovered;
  }
  return Transition::kNone;
}

// ------------------------------------------------------------ TapSink

/// Copies every reading a per-reader controller dispatches (both phases)
/// into a buffer the fleet drains after the reader's cycle.  Registered
/// last in the per-reader pipeline, so the reader's own sinks (assessor,
/// history) saw the reading first.
class FleetController::TapSink final : public ReadingSink {
 public:
  struct Tapped {
    rf::TagReading reading;
    ReadPhase phase = ReadPhase::kPhase1;
  };

  std::string_view name() const override { return "fleet-tap"; }

  bool on_reading(const rf::TagReading& reading,
                  const ReadingContext& context) override {
    buffer_.push_back({reading, context.phase});
    return true;
  }

  std::vector<Tapped> drain() { return std::exchange(buffer_, {}); }

 private:
  std::vector<Tapped> buffer_;
};

// ------------------------------------------------------- FleetController

FleetController::FleetController(FleetConfig config,
                                 std::vector<FleetReaderSpec> readers,
                                 const sim::World* /*ignored*/)
    : config_(std::move(config)), health_(readers.size(), config_.resilience) {
  if (readers.empty()) {
    throw std::invalid_argument("FleetController: need at least one reader");
  }
  readers_.reserve(readers.size());
  for (std::size_t k = 0; k < readers.size(); ++k) {
    if (readers[k].client == nullptr) {
      throw std::invalid_argument("FleetController: null reader client");
    }
    TagwatchConfig cfg = config_.controller;
    cfg.source_id = k;
    cfg.session = reader_session(k);
    cfg.rearm_session = config_.policy == SessionPolicy::kIndependent;
    if (config_.resilience.reader_cycle_budget > util::SimDuration::zero() &&
        cfg.resilience.cycle_watchdog_budget == util::SimDuration::zero()) {
      // The fleet watchdog doubles as each reader's cycle budget unless the
      // caller set a tighter one — a wedged reader cannot stall the TDM
      // rotation past it.
      cfg.resilience.cycle_watchdog_budget =
          config_.resilience.reader_cycle_budget;
    }
    ReaderSlot slot;
    slot.spec = std::move(readers[k]);
    slot.original_zone = slot.spec.zone;
    slot.controller =
        std::make_unique<TagwatchController>(cfg, *slot.spec.client);
    slot.tap = std::make_shared<TapSink>();
    slot.controller->pipeline().add_sink(slot.tap);
    readers_.push_back(std::move(slot));
  }
  journal_.setup.readers = readers_.size();
  journal_.setup.policy = to_string(config_.policy);
  journal_.setup.session = reader_session(0);
  journal_.setup.dedup_window = config_.dedup_window;
}

gen2::Session FleetController::reader_session(std::size_t reader) const {
  switch (config_.policy) {
    case SessionPolicy::kIndependent: return config_.controller.session;
    case SessionPolicy::kShared: return config_.shared_session;
    case SessionPolicy::kPerReader:
      return static_cast<gen2::Session>(reader % 4);
  }
  return config_.controller.session;
}

TagwatchController& FleetController::controller(std::size_t reader) {
  return *readers_.at(reader).controller;
}

FleetCycleReport FleetController::run_cycle() {
  FleetCycleReport fleet;
  fleet.cycle_index = cycle_counter_++;

  // Orphans enqueued by earlier cycles become Phase II pins before anyone
  // runs, so the first post-takeover cycle already hunts for them.
  refresh_extra_targets();

  for (std::size_t k = 0; k < readers_.size(); ++k) {
    ReaderSlot& slot = readers_[k];

    FleetReaderCycle row;
    row.reader = k;
    row.zone = slot.spec.zone.name;
    row.state = health_.state(k);

    if (!health_.should_run(k)) {
      // Down and not due for a probe: the reader sits this cycle out.  A
      // zero-count F record keeps the journal's per-cycle grouping (and
      // the digest) aligned between record and replay.
      health_.observe_skip(k);
      row.skipped = true;
      row.health = slot.controller->health();
      llrp::FleetCycleRecord record;
      record.cycle = fleet.cycle_index;
      record.reader = k;
      record.zone = row.zone;
      journal_.push_cycle(std::move(record));
      fleet.readers.push_back(std::move(row));
      continue;
    }
    row.probe = health_.state(k) == ReaderState::kDown;

    const util::SimTime run_start = slot.spec.client->now();
    row.report = slot.controller->run_cycle();
    const util::SimDuration budget = config_.resilience.reader_cycle_budget;
    row.over_budget = budget > util::SimDuration::zero() &&
                      slot.spec.client->now() - run_start > budget;

    // Drain the tap and dedup across readers: a sighting of an EPC whose
    // last *delivered* reading came from a different reader within the
    // dedup window is suppressed.  Same-reader repeats always pass (the
    // rate-adaptive product is repeated reading), and suppressed readings
    // do not refresh last-seen — a tag camped on a zone seam keeps one
    // owner instead of flapping.  A delivered sighting whose last owner
    // was another reader is a handoff.
    std::vector<rf::TagReading> phase1, phase2;
    for (TapSink::Tapped& t : slot.tap->drain()) {
      ++fleet.readings_total;
      const auto seen = last_seen_.find(t.reading.epc);
      if (seen != last_seen_.end() && seen->second.reader != k) {
        if (t.reading.timestamp - seen->second.at <= config_.dedup_window) {
          ++row.duplicates;
          continue;
        }
        fleet.handoffs.push_back(
            {t.reading.epc, seen->second.reader, k, t.reading.timestamp});
      }
      last_seen_[t.reading.epc] = {k, t.reading.timestamp};
      ++row.delivered;
      if (recover_set_.erase(t.reading.epc) > 0) ++recover_stats_.recovered;
      (t.phase == ReadPhase::kPhase2 ? phase2 : phase1)
          .push_back(std::move(t.reading));
    }

    pipeline_.dispatch_batch(
        phase1, ReadingContext{fleet.cycle_index, ReadPhase::kPhase1, k});
    pipeline_.dispatch_batch(
        phase2, ReadingContext{fleet.cycle_index, ReadPhase::kPhase2, k});

    fleet.delivered_total += row.delivered;
    fleet.duplicates_total += row.duplicates;

    llrp::FleetCycleRecord record;
    record.cycle = fleet.cycle_index;
    record.reader = k;
    record.zone = row.zone;
    record.phase1_readings = row.report.phase1_readings;
    record.phase2_readings = row.report.phase2_readings;
    record.delivered = row.delivered;
    record.duplicates = row.duplicates;
    journal_.push_cycle(std::move(record));

    // Feed the state machine: a *blackout* (errored executes, zero
    // readings) or a watchdog overrun counts as a failed cycle; errored
    // executes that still produced readings only feed the rate window.
    const bool errored = row.report.execute_failures > 0;
    const bool failed =
        (errored &&
         row.report.phase1_readings + row.report.phase2_readings == 0) ||
        row.over_budget;
    const FleetHealth::Transition transition =
        health_.observe(k, failed, errored);
    row.state = health_.state(k);
    row.health = slot.controller->health();
    fleet.readers.push_back(std::move(row));

    if (transition == FleetHealth::Transition::kWentDown) {
      on_reader_down(k, fleet);
    } else if (transition == FleetHealth::Transition::kRecovered) {
      on_reader_recovered(k, fleet);
    }
  }

  // Handoffs are journaled after the cycle's F records, in detection
  // order, so the journal stays grouped per cycle; fault-tolerance events
  // (D/T/R) follow in the same per-cycle group.
  for (const llrp::FleetHandoffRecord& h : fleet.handoffs) {
    journal_.push_handoff(h);
  }
  for (const llrp::FleetDownRecord& d : fleet.downs) journal_.push_down(d);
  for (const llrp::FleetTakeoverRecord& t : fleet.takeovers) {
    journal_.push_takeover(t);
  }
  for (const llrp::FleetRecoverRecord& r : fleet.recoveries) {
    journal_.push_recover(r);
  }
  fleet.recover = recover_stats();

  return fleet;
}

void FleetController::on_reader_down(std::size_t reader,
                                     FleetCycleReport& fleet) {
  ReaderSlot& down = readers_[reader];
  fleet.downs.push_back({fleet.cycle_index, reader, down.original_zone.name,
                         health_.consecutive_failures(reader)});

  // Everything the dead reader owned (last delivered) becomes an orphan
  // awaiting re-cover.  Sorted, so which orphans a full queue drops does
  // not depend on hash order.  The queue is bounded: over capacity, drop
  // (and count) rather than grow.
  std::vector<util::Epc> owned;
  for (const auto& [epc, seen] : last_seen_) {
    if (seen.reader == reader) owned.push_back(epc);
  }
  std::sort(owned.begin(), owned.end());
  for (util::Epc& epc : owned) {
    if (recover_set_.contains(epc)) continue;
    if (recover_set_.size() >= config_.resilience.recover_queue_capacity) {
      ++recover_stats_.dropped;
      continue;
    }
    recover_set_.insert(std::move(epc));
    ++recover_stats_.enqueued;
  }

  if (config_.takeover == TakeoverPolicy::kNone) return;

  for (std::size_t n : takeover_neighbors(reader)) {
    ReaderSlot& survivor = readers_[n];
    const double dx =
        survivor.original_zone.center.x - down.original_zone.center.x;
    const double dy =
        survivor.original_zone.center.y - down.original_zone.center.y;
    // sqrt over hypot: hypot is not required to be correctly rounded, and
    // this distance feeds journaled takeover radii.
    const double dist = std::sqrt(dx * dx + dy * dy);
    const double target =
        config_.takeover == TakeoverPolicy::kStaticNeighbor
            ? survivor.original_zone.radius_m +
                  config_.resilience.static_expand_m
            : dist + down.original_zone.radius_m;
    const double budget = config_.resilience.takeover_radius_budget_m > 0.0
                              ? config_.resilience.takeover_radius_budget_m
                              : 2.0 * survivor.original_zone.radius_m;
    const double granted = std::min(target, budget);
    if (granted <= survivor.spec.zone.radius_m) continue;  // Nothing gained.
    grants_.push_back({reader, n, granted});
    refresh_coverage(n);
    // Session-aware re-inventory: under S2/S3 the orphans may still hold B
    // flags set by the dead reader, invisible to the survivor's target-A
    // queries until the flag decays.  One re-armed round flips the whole
    // expanded zone back to A so takeover coverage is immediate.
    survivor.controller->arm_session_rearm_once();
    fleet.takeovers.push_back(
        {fleet.cycle_index, reader, n,
         static_cast<std::int64_t>(std::lround(granted * 1000.0))});
  }
}

void FleetController::on_reader_recovered(std::size_t reader,
                                          FleetCycleReport& fleet) {
  fleet.recoveries.push_back(
      {fleet.cycle_index, reader, health_.down_cycles(reader)});

  std::vector<std::size_t> touched;
  std::erase_if(grants_, [&](const TakeoverGrant& g) {
    if (g.from != reader) return false;
    touched.push_back(g.to);
    return true;
  });
  for (std::size_t n : touched) {
    refresh_coverage(n);
    bool still_granted = false;
    for (const TakeoverGrant& g : grants_) still_granted |= g.to == n;
    if (!still_granted) readers_[n].controller->set_extra_targets({});
  }
}

void FleetController::refresh_coverage(std::size_t reader) {
  ReaderSlot& slot = readers_[reader];
  sim::Zone zone = slot.original_zone;
  for (const TakeoverGrant& g : grants_) {
    if (g.to == reader) zone.radius_m = std::max(zone.radius_m, g.radius_m);
  }
  slot.spec.zone = zone;
  // Replay clients refuse (return false): the journal already embeds what
  // the expanded coverage read, so replays re-derive the same readings.
  slot.spec.client->set_coverage_zone(zone);
}

void FleetController::refresh_extra_targets() {
  if (config_.takeover != TakeoverPolicy::kAdaptive || grants_.empty()) {
    return;
  }
  // Pin the pending orphans as Phase II targets on every surviving
  // expander.  Order is irrelevant: the controller sorts its targets.
  const std::vector<util::Epc> targets(recover_set_.begin(),
                                       recover_set_.end());
  for (const TakeoverGrant& g : grants_) {
    readers_[g.to].controller->set_extra_targets(targets);
  }
}

std::vector<std::size_t> FleetController::takeover_neighbors(
    std::size_t down) const {
  std::vector<std::size_t> candidates;
  for (std::size_t j = 0; j < readers_.size(); ++j) {
    if (j == down) continue;
    const ReaderState s = health_.state(j);
    if (s == ReaderState::kDown) continue;  // The dead can't cover the dead.
    candidates.push_back(j);
  }
  const util::Vec3& c = readers_[down].original_zone.center;
  const auto dist2 = [&](std::size_t j) {
    const util::Vec3& p = readers_[j].original_zone.center;
    const double dx = p.x - c.x;
    const double dy = p.y - c.y;
    return dx * dx + dy * dy;
  };
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) {
              const double da = dist2(a);
              const double db = dist2(b);
              if (da != db) return da < db;
              return a < b;  // Deterministic tie-break.
            });
  if (candidates.size() > 2) candidates.resize(2);
  return candidates;
}

RecoverStats FleetController::recover_stats() const {
  RecoverStats out = recover_stats_;
  out.pending = recover_set_.size();
  return out;
}

std::vector<FleetCycleReport> FleetController::run_cycles(std::size_t n) {
  std::vector<FleetCycleReport> reports;
  reports.reserve(n);
  for (std::size_t i = 0; i < n; ++i) reports.push_back(run_cycle());
  return reports;
}

}  // namespace tagwatch::core
