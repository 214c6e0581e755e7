#include "util/cli.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/knob.hpp"

namespace mggcn::util {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

CliParser& CliParser::option(const std::string& name,
                             const std::string& default_value,
                             const std::string& help) {
  specs_.emplace_back(name, Spec{default_value, help, /*is_flag=*/false});
  values_[name] = default_value;
  return *this;
}

CliParser& CliParser::flag(const std::string& name, const std::string& help) {
  specs_.emplace_back(name, Spec{"false", help, /*is_flag=*/true});
  values_[name] = "false";
  return *this;
}

void CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    MGGCN_CHECK_MSG(starts_with(arg, "--"), "expected --option, got: " + arg);
    arg = arg.substr(2);

    std::string name = arg;
    std::optional<std::string> inline_value;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }

    auto it = std::find_if(specs_.begin(), specs_.end(),
                           [&](const auto& s) { return s.first == name; });
    MGGCN_CHECK_MSG(it != specs_.end(), "unknown option: --" + name);

    if (it->second.is_flag && !inline_value) {
      values_[name] = "true";
    } else if (inline_value) {
      values_[name] = *inline_value;
    } else {
      MGGCN_CHECK_MSG(i + 1 < argc, "missing value for --" + name);
      values_[name] = argv[++i];
    }
  }
}

std::string CliParser::help() const {
  std::ostringstream os;
  os << description_ << "\n\noptions:\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name;
    if (!spec.is_flag) os << " <value>";
    os << "\n      " << spec.help;
    if (!spec.is_flag) os << " (default: " << spec.default_value << ')';
    os << '\n';
  }
  return os.str();
}

std::string CliParser::get(const std::string& name) const {
  auto it = values_.find(name);
  MGGCN_CHECK_MSG(it != values_.end(), "option not declared: --" + name);
  return it->second;
}

namespace {

// Strict numeric parsing: the whole token must be consumed, and any
// std::stoll/std::stod failure is rewrapped to name the offending flag
// (mirrors sim/fault.cpp's parse_int for fault specs).
std::int64_t parse_full_int(const std::string& s, const std::string& name) {
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(s, &used);
    MGGCN_CHECK_MSG(used == s.size(),
                    "invalid integer for --" + name + ": '" + s + "'");
    return value;
  } catch (const std::logic_error&) {
    throw InvalidArgumentError("invalid integer for --" + name + ": '" + s +
                               "'");
  }
}

double parse_full_double(const std::string& s, const std::string& name) {
  try {
    std::size_t used = 0;
    const double value = std::stod(s, &used);
    MGGCN_CHECK_MSG(used == s.size(),
                    "invalid number for --" + name + ": '" + s + "'");
    return value;
  } catch (const std::logic_error&) {
    throw InvalidArgumentError("invalid number for --" + name + ": '" + s +
                               "'");
  }
}

}  // namespace

std::int64_t CliParser::get_int(const std::string& name) const {
  return parse_full_int(get(name), name);
}

double CliParser::get_double(const std::string& name) const {
  return parse_full_double(get(name), name);
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (const auto parsed = parse_bool(v)) return *parsed;
  throw InvalidArgumentError("invalid boolean for --" + name + ": '" + v +
                             "' (expected true/1/yes/on or false/0/no/off)");
}

std::vector<std::string> CliParser::get_list(const std::string& name) const {
  std::vector<std::string> out;
  std::stringstream ss(get(name));
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<std::int64_t> CliParser::get_int_list(
    const std::string& name) const {
  std::vector<std::int64_t> out;
  for (const auto& item : get_list(name)) {
    out.push_back(parse_full_int(item, name));
  }
  return out;
}

}  // namespace mggcn::util
