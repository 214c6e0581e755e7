// One runtime knob: an MGGCN_* environment variable holding a typed value.
//
// Every runtime switch of the system (MGGCN_KERNELS, MGGCN_COMM, MGGCN_PLAN,
// MGGCN_PART, MGGCN_CACHE, MGGCN_SERVE_CACHE, MGGCN_POOL and their scalar
// companions) is a util::Knob with one contract:
//
//   - Lazy read: the variable is read on the first get(), never during
//     static initialization, so a malformed value surfaces as a catchable
//     InvalidArgumentError at first use (and again on every later get()
//     until it is fixed). A set() before the first get() pre-empts the read.
//   - Unset or empty means "use the default".
//   - Anything else must parse completely, or the read fails loudly with
//     "<KNOB> must be <legal values>, got '<value>'": experiment-script
//     typos must never silently change the configuration under study.
//   - set() installs a value programmatically (range-checked, e.g. from a
//     CLI flag); Knob::Scoped overrides it for one scope (tests, benches).
//
// An enum knob takes a name table (token i names enumerator i); its
// legal-token list is built from that table, so the parser and the error
// text cannot drift apart. A scalar knob takes an inclusive range [lo, hi].
// Knobs are constant-initialized, so registry headers define them as
// `inline constinit`; get() is an acquire load of the ready flag plus one
// relaxed load of the value.
#pragma once

#include <array>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/error.hpp"

namespace mggcn::util {

/// Tokens indexed by enumerator: names[i] names the enumerator of value i.
using NameTable = std::span<const char* const>;

/// The legal-token list of a name table: "'a', 'b', or 'c'" ("'a' or 'b'").
inline std::string token_list(NameTable names) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += names.size() > 2 ? ", " : " ";
    if (i > 0 && i + 1 == names.size()) out += "or ";
    out += '\'';
    out += names[i];
    out += '\'';
  }
  return out;
}

/// Stable name of `value` from its table; "unknown" when out of range.
template <typename Enum>
constexpr const char* enum_name(NameTable names, Enum value) {
  const auto i = static_cast<std::size_t>(value);
  return i < names.size() ? names[i] : "unknown";
}

/// Inverse of enum_name; nullopt for a token not in the table.
template <typename Enum>
constexpr std::optional<Enum> parse_enum(NameTable names,
                                         std::string_view token) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (token == names[i]) return static_cast<Enum>(i);
  }
  return std::nullopt;
}

/// The boolean token set (shared with CliParser::get_bool): the first four
/// mean true, the last four false.
inline constexpr std::array<const char*, 8> kBoolTokens = {
    "true", "1", "yes", "on", "false", "0", "no", "off"};

inline std::optional<bool> parse_bool(std::string_view token) {
  for (std::size_t i = 0; i < kBoolTokens.size(); ++i) {
    if (token == kBoolTokens[i]) return i < kBoolTokens.size() / 2;
  }
  return std::nullopt;
}

/// Full-consumption number parse: the whole token must be one value of T.
/// Trailing garbage, overflow, and a sign on an unsigned T all fail.
/// `base` is strtoll's integer base (0 also accepts 0x hex and 0 octal).
template <typename T>
std::optional<T> parse_number(std::string_view token, int base = 10) {
  static_assert(std::is_floating_point_v<T> || sizeof(T) == sizeof(long long));
  const std::string s(token);
  char* tail = nullptr;
  errno = 0;
  T value{};
  if constexpr (std::is_floating_point_v<T>) {
    value = static_cast<T>(std::strtod(s.c_str(), &tail));
  } else if constexpr (std::is_signed_v<T>) {
    value = static_cast<T>(std::strtoll(s.c_str(), &tail, base));
  } else {
    if (s.find('-') != std::string::npos) return std::nullopt;
    value = static_cast<T>(std::strtoull(s.c_str(), &tail, base));
  }
  if (tail == s.c_str() || *tail != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return value;
}

template <typename T>
class Knob {
  static_assert(std::is_enum_v<T> || std::is_arithmetic_v<T>);
  static constexpr std::size_t kMaxNames = 8;

 public:
  /// Enum knob read from `env`: names[i] is the token of enumerator i,
  /// e.g. `std::array{"off", "on"}` (copied; at most kMaxNames tokens).
  constexpr Knob(const char* env, T fallback, NameTable names)
    requires std::is_enum_v<T>
      : env_(env), fallback_(fallback), count_(names.size()),
        value_(fallback) {
    MGGCN_CHECK_MSG(names.size() <= kMaxNames, "too many knob tokens");
    for (std::size_t i = 0; i < names.size(); ++i) names_[i] = names[i];
  }

  /// Scalar knob read from `env`, legal in [lo, hi]. `what` describes the
  /// legal values in errors; integer knobs may omit it for "an integer in
  /// [lo, hi]". `base` is the integer base (see parse_number). A bool knob
  /// ({env, fallback, false, true}) takes kBoolTokens instead.
  constexpr Knob(const char* env, T fallback, T lo, T hi,
                 const char* what = nullptr, int base = 10)
    requires std::is_arithmetic_v<T>
      : env_(env),
        fallback_(fallback),
        lo_(lo),
        hi_(hi),
        what_(what),
        base_(base),
        value_(fallback) {
    MGGCN_CHECK_MSG(std::is_integral_v<T> || what != nullptr,
                    "a floating-point knob needs a description");
  }

  Knob(const Knob&) = delete;
  Knob& operator=(const Knob&) = delete;

  /// The active value; the first call reads the environment variable.
  [[nodiscard]] T get() const {
    if (!ready_.load(std::memory_order_acquire)) [[unlikely]] {
      load();
    }
    return value_.load(std::memory_order_relaxed);
  }

  /// Installs `value`; throws InvalidArgumentError when it is out of range.
  void set(T value) {
    MGGCN_CHECK_MSG(in_range(value), std::string(env_) + " must be " + legal());
    std::lock_guard lock(mutex_);
    value_.store(value, std::memory_order_relaxed);
    ready_.store(true, std::memory_order_release);
  }

  /// The value `token` names; nullopt when it is malformed or out of range.
  [[nodiscard]] std::optional<T> parse(std::string_view token) const {
    if constexpr (std::is_enum_v<T>) {
      return parse_enum<T>(names(), token);
    } else if constexpr (std::is_same_v<T, bool>) {
      return parse_bool(token);
    } else {
      const auto value = parse_number<T>(token, base_);
      if (value.has_value() && in_range(*value)) return value;
      return std::nullopt;
    }
  }

  /// parse(), but a bad token throws InvalidArgumentError reading
  /// "<what> must be <legal values>, got '<token>'"; `what` names the
  /// source, e.g. "--part" or the variable name.
  [[nodiscard]] T parse_or_throw(std::string_view token,
                                 std::string_view what) const {
    const auto parsed = parse(token);
    MGGCN_CHECK_MSG(parsed.has_value(), std::string(what) + " must be " +
                                            legal() + ", got '" +
                                            std::string(token) + "'");
    return *parsed;
  }

  /// Uncached read of the variable: nullopt when unset or empty; throws
  /// like parse_or_throw when malformed. For knobs that must be re-read
  /// per use (tests flip them between machines).
  [[nodiscard]] std::optional<T> read_env() const {
    const char* env = std::getenv(env_);
    if (env == nullptr || *env == '\0') return std::nullopt;
    return parse_or_throw(env, env_);
  }

  /// Stable token of `value` for logs, CLI, and JSON.
  [[nodiscard]] const char* name(T value) const
    requires std::is_enum_v<T>
  {
    return enum_name(names(), value);
  }

  /// The name table (empty for scalar knobs).
  [[nodiscard]] NameTable names() const { return {names_.data(), count_}; }

  [[nodiscard]] const char* env_name() const { return env_; }

  /// Human description of the legal values, as used in error messages.
  [[nodiscard]] std::string legal() const {
    if constexpr (std::is_enum_v<T>) {
      return token_list(names());
    } else if constexpr (std::is_same_v<T, bool>) {
      return token_list(kBoolTokens);
    } else {
      if (what_ != nullptr) return what_;
      return "an integer in [" + std::to_string(lo_) + ", " +
             std::to_string(hi_) + "]";
    }
  }

  /// RAII override: installs a value for the enclosing scope and restores
  /// the previous one on exit; overrides nest.
  class Scoped {
   public:
    Scoped(Knob& knob, T value) : knob_(knob), previous_(knob.get()) {
      knob.set(value);
    }
    ~Scoped() { knob_.set(previous_); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    Knob& knob_;
    T previous_;
  };

 private:
  [[nodiscard]] bool in_range(T value) const {
    if constexpr (std::is_enum_v<T>) {
      return static_cast<std::size_t>(value) < count_;
    } else {
      return value >= lo_ && value <= hi_;
    }
  }

  void load() const {
    std::lock_guard lock(mutex_);
    if (ready_.load(std::memory_order_relaxed)) return;
    value_.store(read_env().value_or(fallback_), std::memory_order_relaxed);
    ready_.store(true, std::memory_order_release);
  }

  const char* env_;
  T fallback_;
  T lo_{};
  T hi_{};
  const char* what_ = nullptr;
  int base_ = 10;
  std::array<const char*, kMaxNames> names_{};
  std::size_t count_ = 0;
  mutable std::atomic<T> value_;
  mutable std::atomic<bool> ready_{false};
  mutable std::mutex mutex_;
};

}  // namespace mggcn::util
