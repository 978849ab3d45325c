#include "ds/analysis/tokenizer.h"

#include <cctype>

namespace ds::analysis {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsNumberChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '\'';
}

/// Multi-character punctuators the analyses care about distinguishing.
/// Everything else is emitted one character at a time.
const char* const kMultiPunct[] = {"::", "->", "<<=", ">>=", "<<", ">>",
                                   "<=", ">=", "==", "!=", "&&", "||",
                                   "+=", "-=", "*=", "/=", "++", "--"};

}  // namespace

std::vector<Token> Tokenize(const std::string& stripped) {
  std::vector<Token> tokens;
  const size_t n = stripped.size();
  size_t i = 0;
  while (i < n) {
    const char c = stripped[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i + 1;
      while (j < n && IsIdentChar(stripped[j])) ++j;
      tokens.push_back({TokenKind::kIdentifier, stripped.substr(i, j - i), i});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i + 1;
      while (j < n && IsNumberChar(stripped[j])) ++j;
      tokens.push_back({TokenKind::kNumber, stripped.substr(i, j - i), i});
      i = j;
      continue;
    }
    if (c == '"' || c == '\'') {
      // StripCode left only the delimiters; the matching close quote is the
      // next occurrence of the same character (escapes were blanked too).
      size_t j = i + 1;
      while (j < n && stripped[j] != c) ++j;
      if (j < n) ++j;
      tokens.push_back({TokenKind::kString, stripped.substr(i, j - i), i});
      i = j;
      continue;
    }
    bool matched = false;
    for (const char* p : kMultiPunct) {
      const size_t len = std::string(p).size();
      if (stripped.compare(i, len, p) == 0) {
        tokens.push_back({TokenKind::kPunct, p, i});
        i += len;
        matched = true;
        break;
      }
    }
    if (!matched) {
      tokens.push_back({TokenKind::kPunct, std::string(1, c), i});
      ++i;
    }
  }
  return tokens;
}

bool PunctIs(const std::vector<Token>& tokens, size_t i, const char* text) {
  return i < tokens.size() && tokens[i].kind == TokenKind::kPunct &&
         tokens[i].text == text;
}

}  // namespace ds::analysis
