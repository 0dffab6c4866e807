#include "llrp/rospec_xml.hpp"

#include <charconv>
#include <concepts>
#include <string_view>

#include "llrp/journal_codec.hpp"
#include "llrp/reader_journal.hpp"

namespace tagwatch::llrp {

namespace {

/// Streams the XML text into `put` (a string append or a running hash),
/// formatting numbers as an ostream does by default.
template <class Put>
struct XmlOut {
  Put put;

  XmlOut& operator<<(std::string_view s) {
    put(s);
    return *this;
  }
  XmlOut& operator<<(char c) { return *this << std::string_view(&c, 1); }
  template <std::integral Int>
  XmlOut& operator<<(Int v) {
    char buf[24];
    return chars(buf, std::to_chars(buf, buf + sizeof(buf), v));
  }
  /// `%.6g`, an ostream's default for a double.
  XmlOut& operator<<(double v) {
    char buf[32];
    return chars(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                    std::chars_format::general, 6));
  }
  XmlOut& chars(const char* buf, std::to_chars_result res) {
    return *this << std::string_view(buf, res.ptr);
  }
};

template <class Out>
void write_filter(Out& out, const C1G2Filter& f) {
  out << "    <C1G2Filter bank=\"" << static_cast<int>(f.bank)
      << "\" pointer=\"" << f.pointer << "\"";
  if (f.truncate) out << " truncate=\"1\"";
  out << ">\n"
      << "      <Mask>";
  for (std::size_t i = 0; i < f.mask.size(); ++i) {
    out << (f.mask.bit(i) ? '1' : '0');
  }
  out << "</Mask>\n"
      << "    </C1G2Filter>\n";
}

template <class Out>
void write_aispec(Out& out, const AISpec& spec) {
  out << "  <AISpec session=\"" << static_cast<int>(spec.session)
      << "\" initialQ=\"" << static_cast<int>(spec.initial_q) << "\"";
  // Fleet extensions: emitted only when non-default so the canonical XML
  // (and therefore every stored rospec/journal digest) of classic specs is
  // byte-identical to what pre-fleet builds produced.
  if (spec.target != gen2::InvFlag::kA) {
    out << " target=\"" << gen2::to_string(spec.target) << "\"";
  }
  if (!spec.rearm_session) out << " rearm=\"0\"";
  out << ">\n";
  out << "    <Antennas>";
  for (std::size_t i = 0; i < spec.antenna_indexes.size(); ++i) {
    if (i) out << ',';
    out << spec.antenna_indexes[i];
  }
  out << "</Antennas>\n";
  for (const auto& f : spec.filters) write_filter(out, f);
  if (spec.stop.kind == AiSpecStopTrigger::Kind::kDuration) {
    out << "    <StopTrigger kind=\"duration\" ms=\""
        << util::to_millis(spec.stop.duration) << "\"/>\n";
  } else {
    out << "    <StopTrigger kind=\"rounds\" rounds=\"" << spec.stop.rounds
        << "\"/>\n";
  }
  out << "  </AISpec>\n";
}

template <class Out>
void write_rospec(Out& out, const ROSpec& spec) {
  out << "<ROSpec id=\"" << spec.id << "\" priority=\""
      << static_cast<int>(spec.priority) << "\" loops=\"" << spec.loops
      << "\">\n";
  for (const auto& ai : spec.ai_specs) write_aispec(out, ai);
  out << "</ROSpec>\n";
}

}  // namespace

std::string to_xml(const ROSpec& spec) {
  std::string xml;
  XmlOut out{[&xml](std::string_view s) { xml.append(s); }};
  write_rospec(out, spec);
  return xml;
}

std::uint64_t rospec_digest(const ROSpec& spec) {
  journal_codec::Fnv1a hash;
  XmlOut out{[&hash](std::string_view s) { hash.update(s); }};
  write_rospec(out, spec);
  return hash.h;
}

}  // namespace tagwatch::llrp
