// Minimal command-line flag parsing for the repository's CLI tools.
//
// Syntax: `--name value`, `--name=value`, or bare `--switch` (boolean).
// Positional arguments (no leading --) are collected in order.
//
// Every getter records the name it was asked for, so a command that has
// read all its flags can reject the ones it never asked about
// (reject_unread) instead of silently ignoring a misspelt or retired flag.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace car::util {

class Flags {
 public:
  /// Parse argv (excluding argv[0]).  Throws std::invalid_argument on
  /// malformed input (e.g. `--` with no name).
  static Flags parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  /// String value; `fallback` when absent.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const;

  /// Integer value; throws std::invalid_argument when present but
  /// unparseable.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;

  /// Floating-point value; throws std::invalid_argument when unparseable.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;

  /// Boolean switch: present with no value (or "true"/"1") -> true.
  [[nodiscard]] bool get_bool(const std::string& name,
                              bool fallback = false) const;

  /// Comma-separated list of non-negative integers ("4,3,3").
  [[nodiscard]] std::vector<std::size_t> get_size_list(
      const std::string& name,
      const std::vector<std::size_t>& fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Throws util::CheckError naming every parsed flag that no getter has
  /// been asked for (has() does not count as a read).  `command` prefixes
  /// the message.
  void reject_unread(const std::string& command) const;

 private:
  /// Look `name` up and record that it was asked for.
  [[nodiscard]] const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> asked_;
  std::vector<std::string> positional_;
};

}  // namespace car::util
