// Minimal key=value configuration parsing.
//
// Tagwatch allows users to pin "concerned" tags in a configuration file
// (§5): those EPCs are always scheduled in Phase II regardless of motion
// state.  The same parser also backs example/bench parameterization.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/epc.hpp"

namespace tagwatch::util {

/// Parsed `key = value` configuration.  Lines starting with '#' and blank
/// lines are ignored; whitespace around keys and values is trimmed.
class KeyValueConfig {
 public:
  /// Parses configuration text.  Throws std::invalid_argument on a
  /// malformed (non-comment, non-blank, no '=') line.
  static KeyValueConfig parse(std::string_view text);

  /// Loads and parses a file. Throws std::runtime_error if unreadable.
  static KeyValueConfig load(const std::string& path);

  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, std::string fallback) const;
  /// Numeric getters: the whole value must parse ("5s" and "2.5" as an
  /// integer are errors) and a double must be finite.  Throws
  /// std::invalid_argument naming the key otherwise.
  double get_double_or(const std::string& key, double fallback) const;
  std::int64_t get_int_or(const std::string& key, std::int64_t fallback) const;
  bool get_bool_or(const std::string& key, bool fallback) const;

  /// Splits a comma-separated value into trimmed items.
  std::vector<std::string> get_list(const std::string& key) const;

  /// Parses a comma-separated list of hex EPCs (the "concerned tags" list).
  std::vector<Epc> get_epc_list(const std::string& key) const;

  bool contains(const std::string& key) const { return values_.contains(key); }
  std::size_t size() const noexcept { return values_.size(); }

  /// Every key present, sorted — lets callers reject unknown keys with a
  /// helpful message instead of silently ignoring typos.
  std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace tagwatch::util
