// Field codec shared by the two CSV journals (reader_journal.cpp and
// fleet_journal.cpp).  Internal to the llrp library.
//
// A journal loads only canonical text: every field must be exactly what
// to_csv writes for the value it parses to.  So from_csv(x).to_csv() == x
// for every accepted x, and a journal digest names one text rather than a
// family of spellings of it (" 4", "+4", "04", "0x1").
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tagwatch::llrp::journal_codec {

/// Splits one CSV line into fields (no quoting: fields never contain ',').
inline std::vector<std::string> split_fields(std::string_view line) {
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

/// CSV fields never contain ',' or '\n'; free-form text is flattened.
inline std::string sanitize_field(std::string s) {
  for (char& c : s) {
    if (c == ',' || c == '\n' || c == '\r') c = ';';
  }
  return s;
}

/// %.17g round-trips every IEEE-754 double exactly.
inline std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// FNV-1a 64-bit fed in pieces: update(a) then update(b) hashes a + b.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64-bit offset basis.

  void update(std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
};

inline std::uint64_t fnv1a(std::string_view bytes) {
  Fnv1a hash;
  hash.update(bytes);
  return hash.h;
}

/// Parses the fields of one journal line.  Each getter throws
/// std::invalid_argument("<journal>: line <n>: ...") unless its field is
/// the canonical text of its value.
class LineParser {
 public:
  LineParser(const char* journal, std::size_t line_no)
      : journal_(journal), line_no_(line_no) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument(std::string(journal_) + ": line " +
                                std::to_string(line_no_) + ": " + what);
  }

  /// A signed decimal integer: no sign but '-', no leading zero or space.
  std::int64_t integer(const std::string& s) const {
    return decimal<std::int64_t>(s, "integer");
  }

  /// A std::size_t field.  Negative input is rejected rather than cast: it
  /// would wrap to 2^64-k.
  std::size_t count(const std::string& s) const {
    return decimal<std::size_t>(s, "non-negative count");
  }

  /// A boolean written as 0 or 1.
  bool flag(const std::string& s) const {
    if (s != "0" && s != "1") fail("expected flag 0 or 1, got '" + s + "'");
    return s == "1";
  }

  /// A 64-bit digest: exactly 16 lower-case hex digits.
  std::uint64_t digest(const std::string& s) const {
    bool ok = s.size() == 16;
    for (const char c : s) {
      ok = ok && ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
    }
    if (!ok) fail("bad digest '" + s + "' (expected 16 lower-case hex digits)");
    std::uint64_t v = 0;
    std::from_chars(s.data(), s.data() + s.size(), v, 16);
    return v;
  }

  /// A double in %.17g form.
  double number(const std::string& s) const {
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || end != s.c_str() + s.size() || format_double(v) != s) {
      fail("expected number, got '" + s + "'");
    }
    return v;
  }

  /// Free-form text, as sanitize_field() leaves it.
  const std::string& text(const std::string& s) const {
    if (sanitize_field(s) != s) fail("carriage return in text field");
    return s;
  }

 private:
  template <typename T>
  T decimal(const std::string& s, const char* what) const {
    T v = 0;
    const char* last = s.data() + s.size();
    const auto [end, ec] = std::from_chars(s.data(), last, v);
    if (ec == std::errc::result_out_of_range) {
      fail(std::string(what) + " out of range: '" + s + "'");
    }
    if (ec != std::errc() || end != last || std::to_string(v) != s) {
      fail(std::string("expected ") + what + ", got '" + s + "'");
    }
    return v;
  }

  const char* journal_;
  std::size_t line_no_;
};

}  // namespace tagwatch::llrp::journal_codec
