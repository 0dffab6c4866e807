// ReaderClient: the abstract transport between Tagwatch and a reader.
//
// The paper positions Tagwatch as middleware between any LLRP-speaking Gen2
// reader and upper applications (Fig. 5).  This interface is that seam: the
// controller (and every tool/bench/example) drives a reader exclusively
// through ROSpecs and reads the results back, never naming a concrete
// backend.  Implementations:
//
//   SimReaderClient        — executes ROSpecs on the simulated Gen2 reader.
//   RecordingReaderClient  — decorator journaling every operation to a
//                            CSV trace (reader_journal.hpp).
//   ReplayReaderClient     — replays a journal deterministically, with no
//                            simulator behind it.
//
// A future LTK-backed client for physical readers slots in the same way.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "gen2/reader.hpp"
#include "llrp/rospec.hpp"

namespace tagwatch::llrp {

/// Aggregate result of executing one ROSpec.
struct ExecutionReport {
  std::vector<rf::TagReading> readings;
  std::size_t rounds = 0;
  util::SimDuration duration{0};
  gen2::RoundStats slot_totals;  ///< Summed over all rounds.
};

/// How an execute() can fail — the failure modes a COTS LLRP reader
/// actually exhibits (and that FaultInjectingReaderClient reproduces).
enum class ReaderErrorKind {
  kTimeout,        ///< The reader stopped responding; time elapsed anyway.
  kDisconnected,   ///< TCP session dropped mid-operation; needs reconnect.
  kProtocolError,  ///< Malformed/unexpected LLRP message from the reader.
  kPartialReport,  ///< Some TagReportData batches were lost in transit.
  kAntennaLost,    ///< An antenna port stopped driving (cable/port fault).
};

/// Stable lower-case name ("timeout", "disconnected", ...) for logs and
/// journal persistence.
const char* to_string(ReaderErrorKind kind);

/// Parses a name produced by to_string.  Throws std::invalid_argument on
/// anything else.
ReaderErrorKind reader_error_kind_from_string(std::string_view name);

/// One transport failure, attached to the execute() that suffered it.
struct ReaderError {
  ReaderErrorKind kind = ReaderErrorKind::kTimeout;
  /// kAntennaLost: index (into the reader's antenna list) of the dead port.
  std::size_t antenna = 0;
  /// Human-readable detail for logs.
  std::string message;
};

/// What one execute() produced: the report, plus the error that cut it
/// short (if any).  On error the report still carries everything salvaged
/// before the failure — partial readings, rounds run, time elapsed — so
/// callers can use what arrived and charge the time that passed.
struct ExecutionResult {
  ExecutionReport report;
  std::optional<ReaderError> error;

  bool ok() const noexcept { return !error.has_value(); }
};

/// What a reader backend can do — the LLRP GET_READER_CAPABILITIES subset
/// the controller consults when building ROSpecs.
struct ReaderCapabilities {
  /// Human-readable backend identifier ("sim-gen2", "replay", ...).
  std::string model;
  /// Antenna ports the backend can drive (Phase I cycles one round per
  /// antenna; Phase II round-robins selective rounds across them).
  std::size_t antenna_count = 1;
  /// Channels in the backend's hop plan.
  std::size_t channel_count = 1;
  /// Whether C1G2 Truncate on the final Select is honored.
  bool supports_truncation = true;
  /// False for pre-recorded backends (ReplayReaderClient): time comes from
  /// the journal, not from executing anything.
  bool live = true;
};

/// Abstract reader transport.  All implementations are single-threaded and
/// advance a simulated (or journaled) clock as a side effect of execute().
class ReaderClient {
 public:
  ReaderClient() = default;
  ReaderClient(const ReaderClient&) = delete;
  ReaderClient& operator=(const ReaderClient&) = delete;
  virtual ~ReaderClient() = default;

  /// Runs the ROSpec and returns everything it read.  A failing transport
  /// reports the error in the result (never by throwing) together with any
  /// partial readings and the time that elapsed before the failure.
  virtual ExecutionResult execute(const ROSpec& spec) = 0;

  /// Current reader-clock time.
  virtual util::SimTime now() const = 0;

  /// Streams every read to `listener` (in addition to execute()'s report),
  /// in slot order, as it happens.  Pass nullptr to detach.
  virtual void set_read_listener(gen2::ReadCallback listener) = 0;

  /// Static capability query (LLRP GET_READER_CAPABILITIES).
  virtual ReaderCapabilities capabilities() const = 0;

  /// Advances the reader clock by `d` without reading — how the controller
  /// charges its modeled scheduling compute and retry backoff onto the
  /// timeline so inter-phase gaps reflect it (Fig. 17).
  virtual void advance(util::SimDuration d) = 0;

  /// Reshapes the reader's RF coverage footprint (on hardware: transmit
  /// power control) — zone takeover widens a fleet survivor's field over a
  /// failed neighbor's zone.  Returns false when the backend cannot apply
  /// it: replay clients, whose journals already embed whatever coverage
  /// was in effect when the run was recorded.
  virtual bool set_coverage_zone(const sim::Zone& zone) {
    (void)zone;
    return false;
  }
};

}  // namespace tagwatch::llrp
