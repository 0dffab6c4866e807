// Phase I: per-tag motion assessment over inventory readings — the one
// engine the controller and the fleet use.
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
//    MotionDetector classes — both call the shared mog_* kernels of
//    core/immobility.hpp;
//  * assess() merges shard results and sorts by EPC, so assessments (and
//    everything derived from them: CycleReports, journal digests) are
//    byte-equal whether the engine runs with 1 thread or 8.
//
// State is dense per-slot storage — keyed states in a sorted vector,
// Gaussian components in pooled fixed-capacity blocks per shard — so the
// hot loop is allocation-free and mostly sequential.  The differential
// tests compare it against a serial one-MotionDetector-per-tag oracle
// (tests/oracle); bench_phase1_scaling measures its thread scaling.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/detectors.hpp"
#include "rf/measurement.hpp"
#include "util/epc.hpp"
#include "util/sim_time.hpp"
#include "util/task_pool.hpp"

namespace tagwatch::core {

/// Assessor tuning.
struct AssessorConfig {
  DetectorKind detector_kind = DetectorKind::kPhaseMog;
  DetectorConfig detector = {};
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
  /// Which detector family the configured kind maps to.
  enum class Mode { kMog, kDiff, kHybrid };

  /// One mixture bank (phase or RSS scale).
  struct BankSpec {
    ImmobilityConfig config;
    Metric metric = Metric::kCircular;
    bool use_phase = true;
  };

  /// Per-(antenna, channel) detector state of one tag.  MoG kinds use
  /// block_a (and block_b for hybrid) — indices of fixed-capacity
  /// GaussianComponent blocks in the owning shard's pool; diff kinds use
  /// last_value only.
  struct KeyedState {
    std::uint64_t key = 0;
    std::uint32_t block_a = kNoBlock;
    std::uint32_t block_b = kNoBlock;
    std::uint32_t n_a = 0;
    std::uint32_t n_b = 0;
    double last_value = 0.0;

    static constexpr std::uint32_t kNoBlock = 0xffffffffu;
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
    double rssi_dbm = 0.0;
    util::SimTime timestamp{0};
  };

  /// One shard: the tags whose EPC hashes here, their pooled component
  /// storage, and the readings queued since the last flush.  Shards share
  /// nothing, so draining them concurrently is race-free.
  struct Shard {
    std::vector<TagSlot> slots;
    std::vector<PendingReading> pending;
    std::vector<GaussianComponent> comps_a;  ///< Blocks of bank_a_ capacity.
    std::vector<GaussianComponent> comps_b;  ///< Blocks of bank_b_ capacity.
    std::vector<std::uint32_t> free_blocks_a;
    std::vector<std::uint32_t> free_blocks_b;
    std::vector<std::uint32_t> free_slots;
  };

  /// Where a tracked EPC lives.
  struct Route {
    std::uint32_t shard = 0;
    std::uint32_t slot = 0;
  };

  std::uint64_t mog_key(std::uint8_t antenna,
                        std::uint32_t channel) const noexcept;
  void drain_shard(Shard& shard);
  KeyedState& keyed_insert(TagSlot& slot, std::uint64_t key, bool& created);
  MotionVerdict bank_observe(Shard& shard, KeyedState& state, bool bank_b,
                             double value);
  void evict(Shard& shard, std::uint32_t slot_index);

  AssessorConfig config_;
  Mode mode_ = Mode::kMog;
  BankSpec bank_a_;
  BankSpec bank_b_;
  MogKeying keying_;
  bool diff_phase_ = true;
  double diff_threshold_ = 0.0;
  bool hybrid_require_both_ = false;

  util::TaskPool pool_;
  std::vector<Shard> shards_;
  std::unordered_map<util::Epc, Route> routes_;

  bool window_open_ = false;
  std::uint64_t window_epoch_ = 0;
  /// Result of the last closed window, replayed by repeat assess() calls.
  std::vector<TagAssessment> last_window_;
};

}  // namespace tagwatch::core
