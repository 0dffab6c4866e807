#include "llrp/reader_journal.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "llrp/journal_codec.hpp"

namespace tagwatch::llrp {

namespace {

using journal_codec::format_double;
using journal_codec::fnv1a;
using journal_codec::sanitize_field;

constexpr const char* kHeader = "# tagwatch-reader-journal v1";

}  // namespace

std::uint64_t journal_digest(const ReaderJournal& journal) {
  return fnv1a(journal.to_csv());
}

std::string ReaderJournal::to_csv() const {
  std::ostringstream out;
  out << kHeader << '\n';
  const std::string model = sanitize_field(capabilities.model);
  out << "C," << model << ',' << capabilities.antenna_count << ','
      << capabilities.channel_count << ','
      << (capabilities.supports_truncation ? 1 : 0) << ','
      << (capabilities.live ? 1 : 0) << '\n';
  for (const JournalEntry& e : entries_) {
    if (e.kind == JournalEntry::Kind::kAdvance) {
      out << "A," << e.advance.count() << '\n';
      continue;
    }
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(e.digest));
    const gen2::RoundStats& st = e.report.slot_totals;
    out << "E," << digest << ',' << e.start.count() << ','
        << e.report.duration.count() << ',' << e.report.rounds << ','
        << st.slots << ',' << st.empty_slots << ',' << st.collision_slots
        << ',' << st.success_slots << ',' << st.lost_slots << ','
        << st.duration.count() << ',' << e.report.readings.size() << '\n';
    if (e.error) {
      // Error record, attached to the execute above it.
      out << "X," << to_string(e.error->kind) << ',' << e.error->antenna
          << ',' << sanitize_field(e.error->message) << '\n';
    }
    for (const rf::TagReading& r : e.report.readings) {
      out << "R," << r.epc.to_binary() << ','
          << static_cast<unsigned>(r.antenna) << ',' << r.channel << ','
          << format_double(r.phase_rad) << ',' << format_double(r.rssi_dbm)
          << ',' << r.timestamp.count() << '\n';
    }
  }
  return out.str();
}

ReaderJournal ReaderJournal::from_csv(std::string_view csv) {
  ReaderJournal journal;
  std::istringstream in{std::string(csv)};
  std::string line;
  std::size_t line_no = 0;
  std::size_t pending_readings = 0;

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const journal_codec::LineParser p("ReaderJournal", line_no);
    if (line_no == 1) {
      if (line != kHeader) p.fail("missing journal header");
      continue;
    }
    const std::vector<std::string> f = journal_codec::split_fields(line);
    if (f[0] == "C") {
      if (f.size() != 6) p.fail("capabilities line needs 6 fields");
      journal.capabilities.model = p.text(f[1]);
      journal.capabilities.antenna_count = p.count(f[2]);
      journal.capabilities.channel_count = p.count(f[3]);
      journal.capabilities.supports_truncation = p.flag(f[4]);
      journal.capabilities.live = p.flag(f[5]);
    } else if (f[0] == "A") {
      if (pending_readings != 0) p.fail("readings still pending");
      if (f.size() != 2) p.fail("advance line needs 2 fields");
      JournalEntry e;
      e.kind = JournalEntry::Kind::kAdvance;
      e.advance = util::SimDuration(p.integer(f[1]));
      journal.push(std::move(e));
    } else if (f[0] == "E") {
      if (pending_readings != 0) p.fail("readings still pending");
      if (f.size() != 12) p.fail("execute line needs 12 fields");
      JournalEntry e;
      e.kind = JournalEntry::Kind::kExecute;
      e.digest = p.digest(f[1]);
      e.start = util::SimTime(p.integer(f[2]));
      e.report.duration = util::SimDuration(p.integer(f[3]));
      e.report.rounds = p.count(f[4]);
      gen2::RoundStats& st = e.report.slot_totals;
      st.slots = p.count(f[5]);
      st.empty_slots = p.count(f[6]);
      st.collision_slots = p.count(f[7]);
      st.success_slots = p.count(f[8]);
      st.lost_slots = p.count(f[9]);
      st.duration = util::SimDuration(p.integer(f[10]));
      // No reserve(): the declared count is untrusted until its readings
      // are actually parsed.
      pending_readings = p.count(f[11]);
      journal.push(std::move(e));
    } else if (f[0] == "X") {
      if (journal.entries_.empty() ||
          journal.entries_.back().kind != JournalEntry::Kind::kExecute) {
        p.fail("error record without a preceding execute");
      }
      if (journal.entries_.back().error) {
        p.fail("duplicate error record for one execute");
      }
      if (f.size() != 4) p.fail("error line needs 4 fields");
      ReaderError err;
      try {
        err.kind = reader_error_kind_from_string(f[1]);
      } catch (const std::invalid_argument& e) {
        p.fail(e.what());
      }
      err.antenna = p.count(f[2]);
      err.message = p.text(f[3]);
      journal.entries_.back().error = std::move(err);
    } else if (f[0] == "R") {
      if (pending_readings == 0) p.fail("unexpected reading line");
      if (f.size() != 7) p.fail("reading line needs 7 fields");
      rf::TagReading r;
      try {
        r.epc = util::Epc(util::BitString::from_binary(f[1]));
      } catch (const std::invalid_argument& e) {
        p.fail(e.what());
      }
      const std::size_t antenna = p.count(f[2]);
      if (antenna > std::numeric_limits<rf::AntennaId>::max()) {
        p.fail("antenna out of range: '" + f[2] + "'");
      }
      r.antenna = static_cast<rf::AntennaId>(antenna);
      r.channel = p.count(f[3]);
      r.phase_rad = p.number(f[4]);
      r.rssi_dbm = p.number(f[5]);
      r.timestamp = util::SimTime(p.integer(f[6]));
      journal.entries_.back().report.readings.push_back(std::move(r));
      --pending_readings;
    } else {
      p.fail("unknown record kind '" + f[0] + "'");
    }
  }
  if (pending_readings != 0) {
    journal_codec::LineParser("ReaderJournal", line_no)
        .fail("journal truncated mid-entry");
  }
  return journal;
}

void ReaderJournal::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("ReaderJournal: cannot open " + path);
  out << to_csv();
  if (!out) throw std::runtime_error("ReaderJournal: write failed: " + path);
}

ReaderJournal ReaderJournal::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("ReaderJournal: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_csv(buf.str());
}

}  // namespace tagwatch::llrp
