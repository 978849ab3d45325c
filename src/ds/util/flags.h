// name=value command-line flags with typed, range-checked getters: the one
// flag parser of dsctl, ds_served, ds_stress and the bench binaries.
//
// An argument is a flag only if the text before its first '=' is an
// identifier ([a-z_][a-z0-9_]*); anything else (SQL text, a file path) is
// a positional argument. Like net::ParseHostPort, a getter parses the whole
// value with std::from_chars, so trailing text, an empty number, a sign on
// a count, overflow, a value outside the getter's range, NaN and infinity
// are all errors. A getter that fails returns its default and records the
// error. A binary reads every flag before doing any work, then asks
// Finish() for the first error and exits 2 with it:
//
//   util::Flags flags(argc, argv);
//   const uint64_t workers =
//       flags.Count("workers", 2, 1, util::Flags::kMaxThreads);
//   if (Status st = flags.Finish(); !st.ok()) { /* print st */ return 2; }

#ifndef DS_UTIL_FLAGS_H_
#define DS_UTIL_FLAGS_H_

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ds/util/status.h"

namespace ds::util {

class Flags {
 public:
  /// Upper bound for thread, worker and connection counts.
  static constexpr uint64_t kMaxThreads = 1024;

  /// Splits argv[first..argc) into flags and positional arguments. A key
  /// given twice is an error.
  Flags(int argc, const char* const* argv, int first = 1);

  /// A signed decimal integer in [min, max].
  int64_t Int(std::string_view key, int64_t def,
              int64_t min = std::numeric_limits<int64_t>::min(),
              int64_t max = std::numeric_limits<int64_t>::max());

  /// An unsigned decimal integer in [min, max]; no sign is accepted.
  uint64_t Count(std::string_view key, uint64_t def, uint64_t min = 0,
                 uint64_t max = std::numeric_limits<uint64_t>::max());

  /// A finite decimal number in [min, max].
  double Double(std::string_view key, double def,
                double min = std::numeric_limits<double>::lowest(),
                double max = std::numeric_limits<double>::max());

  /// "0" or "1".
  bool Bool(std::string_view key, bool def);

  /// Any value, the empty string included (json= turns a bench's JSON
  /// output off).
  std::string String(std::string_view key, std::string_view def);

  /// The positional arguments in order. Finish() rejects positional
  /// arguments unless this was called.
  std::vector<std::string> TakePositionals();

  /// The first error: a key given twice or a malformed or out-of-range
  /// value (in the order read), then a positional argument nothing took,
  /// then a key no getter read (the message lists the keys that were).
  /// Reading one key more than once is fine.
  Status Finish() const;

 private:
  struct Flag {
    std::string key;
    std::string value;
  };

  /// The value of `key`, or null when absent; marks the key as known.
  const std::string* Find(std::string_view key);
  /// Records `status` unless an earlier error is already recorded.
  void Fail(Status status);
  /// The shared body of Int, Count and Double; `kind` names T in errors.
  template <typename T>
  T Number(std::string_view key, T def, T min, T max, const char* kind);

  std::vector<Flag> flags_;  // in argv order
  std::vector<std::string> positionals_;
  bool positionals_taken_ = false;
  std::set<std::string, std::less<>> known_;  // every key a getter asked for
  Status first_error_;
};

}  // namespace ds::util

#endif  // DS_UTIL_FLAGS_H_
