#include "util/flags.h"

#include <stdexcept>

#include "util/check.h"

namespace car::util {

Flags Flags::parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.starts_with("--")) {
      flags.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    CAR_CHECK(!body.empty(), "Flags: bare '--' is not a valid flag");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is another flag (then boolean).
    if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      flags.values_[body] = argv[++i];
    } else {
      flags.values_[body] = "true";
    }
  }
  return flags;
}

bool Flags::has(const std::string& name) const {
  return values_.contains(name);
}

const std::string* Flags::find(const std::string& name) const {
  asked_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : *value;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const std::string* text = find(name);
  if (text == nullptr) return fallback;
  try {
    std::size_t pos = 0;
    const std::int64_t value = std::stoll(*text, &pos);
    if (pos != text->size()) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("Flags: --" + name +
                                " expects an integer, got '" + *text + "'");
  }
}

double Flags::get_double(const std::string& name, double fallback) const {
  const std::string* text = find(name);
  if (text == nullptr) return fallback;
  try {
    std::size_t pos = 0;
    const double value = std::stod(*text, &pos);
    if (pos != text->size()) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("Flags: --" + name +
                                " expects a number, got '" + *text + "'");
  }
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const std::string* text = find(name);
  if (text == nullptr) return fallback;
  return *text == "true" || *text == "1" || *text == "yes";
}

std::vector<std::size_t> Flags::get_size_list(
    const std::string& name, const std::vector<std::size_t>& fallback) const {
  const std::string* text = find(name);
  if (text == nullptr) return fallback;
  std::vector<std::size_t> out;
  std::string token;
  for (char ch : *text + ",") {
    if (ch == ',') {
      if (token.empty()) continue;
      try {
        out.push_back(static_cast<std::size_t>(std::stoull(token)));
      } catch (const std::exception&) {
        throw std::invalid_argument("Flags: --" + name +
                                    " expects a comma-separated list of "
                                    "integers, got '" + *text + "'");
      }
      token.clear();
    } else {
      token += ch;
    }
  }
  return out;
}

void Flags::reject_unread(const std::string& command) const {
  std::string unread;
  for (const auto& [name, value] : values_) {
    if (!asked_.contains(name)) unread += " --" + name;
  }
  CAR_CHECK(unread.empty(), command + ": unknown flag(s)" + unread);
}

}  // namespace car::util
