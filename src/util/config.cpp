#include "util/config.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace tagwatch::util {

namespace {

std::string trim(std::string_view s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string_view::npos) return {};
  const auto end = s.find_last_not_of(" \t\r\n");
  return std::string(s.substr(begin, end - begin + 1));
}

/// Numeric getters parse the whole value: trailing characters ("5s", or
/// "2.5" read as an integer) and out-of-range values are errors naming
/// the key, never silent truncations.
[[noreturn]] void throw_bad_value(const std::string& key,
                                  const std::string& value,
                                  const char* expected) {
  throw std::invalid_argument("KeyValueConfig: key '" + key + "': '" + value +
                              "' is not " + expected);
}

}  // namespace

KeyValueConfig KeyValueConfig::parse(std::string_view text) {
  KeyValueConfig cfg;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? text.size() - pos
                                                      : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;

    const std::string trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("KeyValueConfig: missing '=' on line " +
                                  std::to_string(line_no));
    }
    cfg.values_[trim(trimmed.substr(0, eq))] = trim(trimmed.substr(eq + 1));
  }
  return cfg;
}

KeyValueConfig KeyValueConfig::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("KeyValueConfig: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

std::optional<std::string> KeyValueConfig::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string KeyValueConfig::get_or(const std::string& key,
                                   std::string fallback) const {
  return get(key).value_or(std::move(fallback));
}

double KeyValueConfig::get_double_or(const std::string& key,
                                     double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  std::size_t used = 0;
  double out = 0.0;
  try {
    out = std::stod(*v, &used);
  } catch (const std::logic_error&) {
    used = 0;  // std::invalid_argument or std::out_of_range.
  }
  // NaN would pass every range check (all its comparisons are false).
  if (used == 0 || used != v->size() || !std::isfinite(out)) {
    throw_bad_value(key, *v, "a finite number");
  }
  return out;
}

std::int64_t KeyValueConfig::get_int_or(const std::string& key,
                                        std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  std::size_t used = 0;
  std::int64_t out = 0;
  try {
    out = std::stoll(*v, &used);
  } catch (const std::logic_error&) {
    used = 0;
  }
  if (used == 0 || used != v->size()) throw_bad_value(key, *v, "an integer");
  return out;
}

bool KeyValueConfig::get_bool_or(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("KeyValueConfig: bad boolean for " + key);
}

std::vector<std::string> KeyValueConfig::get_list(
    const std::string& key) const {
  std::vector<std::string> out;
  const auto v = get(key);
  if (!v) return out;
  std::size_t pos = 0;
  while (pos <= v->size()) {
    const auto comma = v->find(',', pos);
    const auto piece =
        v->substr(pos, comma == std::string::npos ? v->size() - pos
                                                  : comma - pos);
    const std::string item = trim(piece);
    if (!item.empty()) out.push_back(item);
    pos = comma == std::string::npos ? v->size() + 1 : comma + 1;
  }
  return out;
}

std::vector<std::string> KeyValueConfig::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) {
    (void)value;
    out.push_back(key);
  }
  return out;
}

std::vector<Epc> KeyValueConfig::get_epc_list(const std::string& key) const {
  std::vector<Epc> out;
  for (const auto& hex : get_list(key)) {
    out.push_back(Epc::from_hex(hex));
  }
  return out;
}

}  // namespace tagwatch::util
