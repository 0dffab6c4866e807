// Phase I: per-tag motion assessment over inventory readings — the one
// engine the controller and the fleet use.
//
// It runs the paper's run-time detector, Phase-MoG (§4): one immobility
// model over RF phase per (antenna, channel) of each tag.  The §7.1
// comparison detectors (RSS-MoG, the diff methods, fusion) live only in
// core/detectors.* for the offline benches.
//
// Every reading (from either phase) trains its tag's immobility models;
// readings inside an assessment window also vote, and assess() turns the
// votes into the mobile-tag set handed to Phase II.  The §4.3 "reading
// exceptions" policy lives here too: state for tags that leave the field
// for a long time is dropped; unknown tags are admitted (and initially
// presumed mobile) on their first reading.
//
// The engine is sharded and batched, and its output is identical for ANY
// thread count, by construction:
//
//  * ingest() is serial and cheap: it routes the reading to a shard chosen
//    by the stable content hash of the EPC, so every reading of one tag
//    lands on the same shard in arrival order;
//  * per-tag detector state depends only on that tag's own readings, so
//    shards can drain concurrently (util::TaskPool fork/join) while each
//    tag still sees exactly the per-reading update of the readable
//    MogDetector — both call the shared mog_* kernels of
//    core/immobility.hpp;
//  * assess() merges shard results and sorts by EPC, so assessments (and
//    everything derived from them: CycleReports, journal digests) are
//    byte-equal whether the engine runs with 1 thread or 8.
//
// State is dense per-slot storage — keyed states in a sorted vector,
// Gaussian components in pooled fixed-capacity blocks per shard — so the
// hot loop is allocation-free and mostly sequential.  The differential
// tests compare it against a serial one-MogDetector-per-tag oracle
// (tests/oracle); bench_phase1_scaling measures its thread scaling.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/immobility.hpp"
#include "rf/measurement.hpp"
#include "util/epc.hpp"
#include "util/sim_time.hpp"
#include "util/task_pool.hpp"

namespace tagwatch::core {

/// Assessor tuning.
struct AssessorConfig {
  /// Phase-MoG mixture parameters of every (antenna, channel) model.
  ImmobilityConfig immobility = {};
  /// Tags unseen for longer than this are forgotten (models removed).
  util::SimDuration forget_after = util::sec(60);
  /// A tag is assessed mobile when at least this many of its readings in
  /// the window were flagged as motion.  1 maximizes sensitivity (a single
  /// unexplained phase on any antenna/channel marks the tag).
  std::size_t mobile_vote_threshold = 1;
};

/// Per-tag assessment summary for one window.
struct TagAssessment {
  util::Epc epc;
  std::size_t window_readings = 0;
  std::size_t moving_votes = 0;
  bool mobile = false;
};

/// Phase-I motion assessor (window protocol: begin_window / ingest /
/// assess).  Readings buffer in per-shard queues and are drained on
/// flush(), which begin_window() and assess() call implicitly — detector
/// state is always current at every observable boundary, it just lags
/// between them.
class ParallelAssessor {
 public:
  /// `threads` sizes the TaskPool and the shard count.  Any value yields
  /// identical output; more threads only buy ingestion throughput.
  /// Mixture parameters are validated here — throws std::invalid_argument
  /// like ImmobilityModel does.
  explicit ParallelAssessor(AssessorConfig config = {},
                            std::size_t threads = 1);

  /// Opens an assessment window (drains any buffered readings first,
  /// under closed-window semantics, exactly as if they had been applied
  /// on arrival).
  void begin_window();

  /// Buffers one reading on its tag's shard.  O(1) amortized; the
  /// detector update itself runs at the next flush().
  void ingest(const rf::TagReading& reading);

  /// Drains all buffered readings through the shard detectors on the
  /// TaskPool.  Idempotent; called implicitly by begin_window()/assess().
  void flush();

  /// Ends the window: per-tag assessments for tags read in the window,
  /// sorted by EPC, with forget_after eviction applied once.  Repeat
  /// calls replay the cached result until the next begin_window().
  const std::vector<TagAssessment>& assess(util::SimTime now);

  /// EPCs assessed mobile in the last window (convenience over assess()).
  std::vector<util::Epc> mobile_tags(util::SimTime now);

  /// Tags currently tracked (have detector state).
  std::size_t tracked_count() const noexcept { return routes_.size(); }

  std::size_t thread_count() const noexcept { return pool_.thread_count(); }
  const AssessorConfig& config() const noexcept { return config_; }

 private:
  /// Per-(antenna, channel) model of one tag: the index of its
  /// fixed-capacity GaussianComponent block in the owning shard's pool,
  /// and how many of the block's components are live.
  struct KeyedState {
    std::uint64_t key = 0;
    std::uint32_t block = 0;
    std::uint32_t n = 0;
  };

  /// Dense per-tag state: window vote counters plus one KeyedState per
  /// (antenna, channel) model.
  struct TagSlot {
    util::Epc epc;
    util::SimTime last_seen{0};
    std::uint64_t window_epoch = 0;
    std::size_t window_readings = 0;
    std::size_t moving_votes = 0;
    bool live = false;
    std::vector<KeyedState> keyed;  ///< Sorted by key.
  };

  /// A buffered reading, already routed to its slot.
  struct PendingReading {
    std::uint32_t slot = 0;
    std::uint32_t channel = 0;
    std::uint8_t antenna = 0;
    double phase_rad = 0.0;
    util::SimTime timestamp{0};
  };

  /// One shard: the tags whose EPC hashes here, their pooled component
  /// storage, and the readings queued since the last flush.  Shards share
  /// nothing, so draining them concurrently is race-free.
  struct Shard {
    std::vector<TagSlot> slots;
    std::vector<PendingReading> pending;
    /// Blocks of immobility.max_components components each.
    std::vector<GaussianComponent> comps;
    std::vector<std::uint32_t> free_blocks;
    std::vector<std::uint32_t> free_slots;
  };

  /// Where a tracked EPC lives.
  struct Route {
    std::uint32_t shard = 0;
    std::uint32_t slot = 0;
  };

  void drain_shard(Shard& shard);
  /// The slot's model for `key`, created with a fresh component block on
  /// first use.
  KeyedState& keyed_state(Shard& shard, TagSlot& slot, std::uint64_t key);
  void evict(Shard& shard, std::uint32_t slot_index);

  AssessorConfig config_;

  util::TaskPool pool_;
  std::vector<Shard> shards_;
  std::unordered_map<util::Epc, Route> routes_;

  bool window_open_ = false;
  std::uint64_t window_epoch_ = 0;
  /// Result of the last closed window, replayed by repeat assess() calls.
  std::vector<TagAssessment> last_window_;
};

}  // namespace tagwatch::core
