#include "ds/analysis/source.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace ds::analysis {

namespace fs = std::filesystem;

namespace {

// True if the `'` at `quote` is a digit separator (`15'000`, `0x1'000`): the
// run of number characters before it starts with a digit. A run that starts
// with a letter is an encoding prefix (`u8'a'`), and no run is a char
// literal (`f('a')`).
bool IsDigitSeparator(const std::string& in, size_t quote) {
  size_t start = quote;
  while (start > 0) {
    const unsigned char c = static_cast<unsigned char>(in[start - 1]);
    if (std::isalnum(c) == 0 && c != '_' && c != '.' && c != '\'') break;
    --start;
  }
  return start < quote &&
         std::isdigit(static_cast<unsigned char>(in[start])) != 0;
}

}  // namespace

std::string StripCode(const std::string& in, StripMode mode) {
  const bool blank_comments = mode != StripMode::kStrings;
  const bool blank_strings = mode != StripMode::kComments;
  std::string out = in;
  enum class S { kCode, kLine, kBlock, kStr, kChar } st = S::kCode;
  for (size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case S::kCode:
        if (c == '/' && next == '/') {
          st = S::kLine;
          if (blank_comments) out[i] = ' ';
        } else if (c == '/' && next == '*') {
          st = S::kBlock;
          if (blank_comments) out[i] = ' ';
        } else if (c == '"') {
          st = S::kStr;
          if (blank_strings) out[i] = ' ';
        } else if (c == '\'' && !IsDigitSeparator(in, i)) {
          st = S::kChar;
          if (blank_strings) out[i] = ' ';
        }
        break;
      case S::kLine:
        if (c == '\n') {
          st = S::kCode;
        } else if (blank_comments) {
          out[i] = ' ';
        }
        break;
      case S::kBlock:
        if (c == '*' && next == '/') {
          if (blank_comments) {
            out[i] = ' ';
            out[i + 1] = ' ';
          }
          ++i;
          st = S::kCode;
        } else if (blank_comments && c != '\n') {
          out[i] = ' ';
        }
        break;
      case S::kStr:
        if (c == '\\' && next != '\0') {
          if (blank_strings) {
            out[i] = ' ';
            if (next != '\n') out[i + 1] = ' ';
          }
          ++i;
        } else if (c == '"') {
          if (blank_strings) out[i] = ' ';
          st = S::kCode;
        } else if (blank_strings && c != '\n') {
          out[i] = ' ';
        }
        break;
      case S::kChar:
        if (c == '\\' && next != '\0') {
          if (blank_strings) {
            out[i] = ' ';
            if (next != '\n') out[i + 1] = ' ';
          }
          ++i;
        } else if (c == '\'') {
          if (blank_strings) out[i] = ' ';
          st = S::kCode;
        } else if (blank_strings && c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

size_t LineOfOffset(const std::string& text, size_t offset) {
  size_t line = 1;
  for (size_t i = 0; i < offset && i < text.size(); ++i) {
    if (text[i] == '\n') ++line;
  }
  return line;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

namespace {

bool AnalyzableFile(const fs::path& p) {
  const std::string s = p.string();
  return EndsWith(s, ".h") || EndsWith(s, ".cc");
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

}  // namespace

bool CollectSources(const std::vector<std::string>& roots,
                    std::vector<SourceFile>* out) {
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (auto it = fs::recursive_directory_iterator(root, ec);
           it != fs::recursive_directory_iterator(); ++it) {
        if (!it->is_regular_file(ec) || !AnalyzableFile(it->path())) continue;
        SourceFile f;
        f.path = it->path().string();
        if (!ReadFile(f.path, &f.content)) {
          std::fprintf(stderr, "analysis: cannot read '%s'\n", f.path.c_str());
          return false;
        }
        out->push_back(std::move(f));
      }
    } else if (fs::is_regular_file(root, ec)) {
      SourceFile f;
      f.path = root;
      if (!ReadFile(f.path, &f.content)) {
        std::fprintf(stderr, "analysis: cannot read '%s'\n", f.path.c_str());
        return false;
      }
      out->push_back(std::move(f));
    } else {
      std::fprintf(stderr, "analysis: cannot open '%s'\n", root.c_str());
      return false;
    }
  }
  std::sort(out->begin(), out->end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return true;
}

}  // namespace ds::analysis
