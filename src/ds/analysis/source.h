// Source-text plumbing for tools/ds_lint: comment/string stripping, line
// splitting, and the file walk.
//
// Everything here is pure text: no dependency on the deepsketch library, so
// ds_lint builds (and can lint the tree) even while the library itself is
// broken.

#ifndef DS_ANALYSIS_SOURCE_H_
#define DS_ANALYSIS_SOURCE_H_

#include <cstddef>
#include <string>
#include <vector>

namespace ds::analysis {

/// What StripCode blanks. Offsets and newlines are always preserved so
/// findings keep real line numbers.
enum class StripMode {
  kComments,             // comments blanked, string/char literals intact
  kCommentsAndStrings,   // both blanked (the default for code-pattern rules)
  kStrings,              // string/char literals blanked, comments intact
};

/// Replaces the selected regions with spaces. A comment-aware rule runs on
/// kCommentsAndStrings text; name-extraction rules (metric names, span
/// names) use kComments; suppression scans (NOLINT lives in comments, but
/// must not fire on "NOLINT" inside a string literal) use kStrings.
std::string StripCode(const std::string& in, StripMode mode);

/// `text` split at '\n' (trailing fragment included).
std::vector<std::string> SplitLines(const std::string& text);

/// 1-based line number of byte `offset` in `text`.
size_t LineOfOffset(const std::string& text, size_t offset);

bool EndsWith(const std::string& s, const char* suffix);

/// One file handed to the lint pass.
struct SourceFile {
  std::string path;
  std::string content;
};

/// Recursively collects .h/.cc files under each root (a root may also be a
/// single file). Returns false (and prints to stderr) if a root does not
/// exist. Paths come back sorted so runs are deterministic regardless of
/// directory iteration order.
bool CollectSources(const std::vector<std::string>& roots,
                    std::vector<SourceFile>* out);

}  // namespace ds::analysis

#endif  // DS_ANALYSIS_SOURCE_H_
