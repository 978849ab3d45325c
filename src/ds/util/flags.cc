#include "ds/util/flags.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <type_traits>

namespace ds::util {

namespace {

bool IsIdentifier(std::string_view s) {
  if (s.empty() || (s[0] >= '0' && s[0] <= '9')) return false;
  for (char c : s) {
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
  }
  return true;
}

template <typename T>
std::string Show(T v) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

/// " in [min, max]", leaving out a bound that is the type's own limit.
template <typename T>
std::string ShowRange(T min, T max) {
  const bool no_min = min == std::numeric_limits<T>::lowest();
  const bool no_max = max == std::numeric_limits<T>::max();
  if (no_min && no_max) return "";
  if (no_max) return " >= " + Show(min);
  if (no_min) return " <= " + Show(max);
  return " in [" + Show(min) + ", " + Show(max) + "]";
}

}  // namespace

Flags::Flags(int argc, const char* const* argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const size_t eq = arg.find('=');
    if (eq == std::string_view::npos || !IsIdentifier(arg.substr(0, eq))) {
      positionals_.emplace_back(arg);
      continue;
    }
    const std::string_view key = arg.substr(0, eq);
    for (const Flag& flag : flags_) {
      if (flag.key == key) {
        Fail(Status::InvalidArgument("flag '" + std::string(key) +
                                     "' given twice"));
      }
    }
    flags_.push_back({std::string(key), std::string(arg.substr(eq + 1))});
  }
}

const std::string* Flags::Find(std::string_view key) {
  known_.emplace(key);
  for (const Flag& flag : flags_) {
    if (flag.key == key) return &flag.value;
  }
  return nullptr;
}

void Flags::Fail(Status status) {
  if (first_error_.ok()) first_error_ = std::move(status);
}

template <typename T>
T Flags::Number(std::string_view key, T def, T min, T max, const char* kind) {
  const std::string* value = Find(key);
  if (value == nullptr) return def;
  const char* end = value->data() + value->size();
  T parsed{};
  const auto [ptr, ec] = std::from_chars(value->data(), end, parsed);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(parsed);
  if (ok && parsed >= min && parsed <= max) return parsed;
  Fail(Status::InvalidArgument("flag " + std::string(key) + "=" + *value +
                               ": expected " + kind + ShowRange(min, max)));
  return def;
}

int64_t Flags::Int(std::string_view key, int64_t def, int64_t min,
                   int64_t max) {
  return Number(key, def, min, max, "an integer");
}

uint64_t Flags::Count(std::string_view key, uint64_t def, uint64_t min,
                      uint64_t max) {
  return Number(key, def, min, max, "a count");
}

double Flags::Double(std::string_view key, double def, double min,
                     double max) {
  return Number(key, def, min, max, "a finite number");
}

bool Flags::Bool(std::string_view key, bool def) {
  const std::string* value = Find(key);
  if (value == nullptr) return def;
  if (*value == "0" || *value == "1") return *value == "1";
  Fail(Status::InvalidArgument("flag " + std::string(key) + "=" + *value +
                               ": expected 0 or 1"));
  return def;
}

std::string Flags::String(std::string_view key, std::string_view def) {
  const std::string* value = Find(key);
  return value == nullptr ? std::string(def) : *value;
}

std::vector<std::string> Flags::TakePositionals() {
  positionals_taken_ = true;
  return positionals_;
}

Status Flags::Finish() const {
  if (!first_error_.ok()) return first_error_;
  if (!positionals_taken_ && !positionals_.empty()) {
    return Status::InvalidArgument("unexpected argument '" +
                                   positionals_.front() +
                                   "' (flags are name=value)");
  }
  for (const Flag& flag : flags_) {
    if (known_.count(flag.key) != 0) continue;
    std::string known;
    for (const std::string& k : known_) {
      known += (known.empty() ? "" : ", ") + k;
    }
    return Status::InvalidArgument("unknown flag '" + flag.key +
                                   "' (known: " +
                                   (known.empty() ? "none" : known) + ")");
  }
  return Status::OK();
}

}  // namespace ds::util
