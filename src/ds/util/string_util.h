// Small string helpers shared by the SQL front-end and CSV I/O.

#ifndef DS_UTIL_STRING_UTIL_H_
#define DS_UTIL_STRING_UTIL_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace ds::util {

/// Splits on every occurrence of `sep`; "a,,b" -> {"a", "", "b"}.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins with `sep` between elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Formats a byte count as "512 B" / "3.2 KiB" / "4.7 MiB".
std::string HumanBytes(size_t bytes);

/// Hash for string-keyed unordered maps that are also looked up by
/// std::string_view without building a std::string (with std::equal_to<>).
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace ds::util

#endif  // DS_UTIL_STRING_UTIL_H_
