#include "llrp/reader_journal.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "llrp/rospec_xml.hpp"

namespace tagwatch::llrp {

namespace {

constexpr const char* kHeader = "# tagwatch-reader-journal v1";

std::string format_double(double v) {
  char buf[64];
  // %.17g round-trips every IEEE-754 double exactly.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Splits one CSV line into fields (no quoting: fields never contain ',').
std::vector<std::string> split_fields(std::string_view line) {
  std::vector<std::string> fields;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    const std::size_t comma = line.find(',', pos);
    if (comma == std::string_view::npos) {
      fields.emplace_back(line.substr(pos));
      break;
    }
    fields.emplace_back(line.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return fields;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("ReaderJournal: line " +
                              std::to_string(line_no) + ": " + what);
}

std::int64_t parse_int(const std::string& s, std::size_t line_no) {
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(s, &used);
    if (used != s.size()) fail(line_no, "trailing garbage in '" + s + "'");
    return v;
  } catch (const std::invalid_argument&) {
    fail(line_no, "expected integer, got '" + s + "'");
  } catch (const std::out_of_range&) {
    fail(line_no, "integer out of range: '" + s + "'");
  }
}

/// A std::size_t field.  Negative input is rejected rather than cast: it
/// would wrap to 2^64-k, and to_csv(from_csv(x)) would no longer equal x.
std::size_t parse_count(const std::string& s, std::size_t line_no) {
  const std::int64_t v = parse_int(s, line_no);
  if (v < 0) fail(line_no, "expected non-negative count, got '" + s + "'");
  return static_cast<std::size_t>(v);
}

std::uint64_t parse_hex64(const std::string& s, std::size_t line_no) {
  if (s.empty()) fail(line_no, "empty digest");
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, 16);
  if (end != s.c_str() + s.size()) fail(line_no, "bad digest '" + s + "'");
  return v;
}

double parse_double(const std::string& s, std::size_t line_no) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size()) {
    fail(line_no, "expected number, got '" + s + "'");
  }
  return v;
}

}  // namespace

namespace {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64-bit offset basis.
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::uint64_t rospec_digest(const ROSpec& spec) { return fnv1a(to_xml(spec)); }

std::uint64_t journal_digest(const ReaderJournal& journal) {
  return fnv1a(journal.to_csv());
}

namespace {

/// CSV fields never contain ',' or '\n'; free-form text is flattened.
std::string sanitize_field(std::string s) {
  for (char& c : s) {
    if (c == ',' || c == '\n' || c == '\r') c = ';';
  }
  return s;
}

}  // namespace

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
    if (line_no == 1) {
      if (line != kHeader) fail(line_no, "missing journal header");
      continue;
    }
    const std::vector<std::string> f = split_fields(line);
    if (f[0] == "C") {
      if (f.size() != 6) fail(line_no, "capabilities line needs 6 fields");
      journal.capabilities.model = f[1];
      journal.capabilities.antenna_count = parse_count(f[2], line_no);
      journal.capabilities.channel_count = parse_count(f[3], line_no);
      journal.capabilities.supports_truncation = parse_int(f[4], line_no) != 0;
      journal.capabilities.live = parse_int(f[5], line_no) != 0;
    } else if (f[0] == "A") {
      if (pending_readings != 0) fail(line_no, "readings still pending");
      if (f.size() != 2) fail(line_no, "advance line needs 2 fields");
      JournalEntry e;
      e.kind = JournalEntry::Kind::kAdvance;
      e.advance = util::SimDuration(parse_int(f[1], line_no));
      journal.push(std::move(e));
    } else if (f[0] == "E") {
      if (pending_readings != 0) fail(line_no, "readings still pending");
      if (f.size() != 12) fail(line_no, "execute line needs 12 fields");
      JournalEntry e;
      e.kind = JournalEntry::Kind::kExecute;
      e.digest = parse_hex64(f[1], line_no);
      e.start = util::SimTime(parse_int(f[2], line_no));
      e.report.duration = util::SimDuration(parse_int(f[3], line_no));
      e.report.rounds = parse_count(f[4], line_no);
      gen2::RoundStats& st = e.report.slot_totals;
      st.slots = parse_count(f[5], line_no);
      st.empty_slots = parse_count(f[6], line_no);
      st.collision_slots = parse_count(f[7], line_no);
      st.success_slots = parse_count(f[8], line_no);
      st.lost_slots = parse_count(f[9], line_no);
      st.duration = util::SimDuration(parse_int(f[10], line_no));
      // No reserve(): the declared count is untrusted until its readings
      // are actually parsed.
      pending_readings = parse_count(f[11], line_no);
      journal.push(std::move(e));
    } else if (f[0] == "X") {
      if (journal.entries_.empty() ||
          journal.entries_.back().kind != JournalEntry::Kind::kExecute) {
        fail(line_no, "error record without a preceding execute");
      }
      if (journal.entries_.back().error) {
        fail(line_no, "duplicate error record for one execute");
      }
      if (f.size() != 4) fail(line_no, "error line needs 4 fields");
      ReaderError err;
      try {
        err.kind = reader_error_kind_from_string(f[1]);
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
      err.antenna = parse_count(f[2], line_no);
      err.message = f[3];
      journal.entries_.back().error = std::move(err);
    } else if (f[0] == "R") {
      if (pending_readings == 0) fail(line_no, "unexpected reading line");
      if (f.size() != 7) fail(line_no, "reading line needs 7 fields");
      rf::TagReading r;
      try {
        r.epc = util::Epc(util::BitString::from_binary(f[1]));
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
      const std::size_t antenna = parse_count(f[2], line_no);
      if (antenna > std::numeric_limits<rf::AntennaId>::max()) {
        fail(line_no, "antenna out of range: '" + f[2] + "'");
      }
      r.antenna = static_cast<rf::AntennaId>(antenna);
      r.channel = parse_count(f[3], line_no);
      r.phase_rad = parse_double(f[4], line_no);
      r.rssi_dbm = parse_double(f[5], line_no);
      r.timestamp = util::SimTime(parse_int(f[6], line_no));
      journal.entries_.back().report.readings.push_back(std::move(r));
      --pending_readings;
    } else {
      fail(line_no, "unknown record kind '" + f[0] + "'");
    }
  }
  if (pending_readings != 0) {
    fail(line_no, "journal truncated mid-entry");
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
