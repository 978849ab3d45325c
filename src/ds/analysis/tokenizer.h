// A flat C++ token stream for ds_lint.
//
// Not a real lexer — it runs over StripCode'd text (comments blanked,
// string/char literals reduced to their quote marks) and classifies what is
// left into identifiers, numbers, string stubs, and punctuation. That is
// exactly enough for ds_lint's pattern-level harvest (which functions
// return Status/Result) while staying a page of code instead of a compiler
// frontend.

#ifndef DS_ANALYSIS_TOKENIZER_H_
#define DS_ANALYSIS_TOKENIZER_H_

#include <cstddef>
#include <string>
#include <vector>

namespace ds::analysis {

enum class TokenKind {
  kIdentifier,  // [A-Za-z_][A-Za-z0-9_]*  (keywords included)
  kNumber,      // [0-9][A-Za-z0-9_.']*    (good enough for 0x1f, 1'000, 1e-3)
  kString,      // a blanked "..." or '...' literal (text is the quotes only)
  kPunct,       // one operator/punctuator: multi-char ::, ->, <<, etc.
};

struct Token {
  TokenKind kind;
  std::string text;
  size_t offset = 0;  // byte offset into the (stripped) input
};

/// Tokenizes text already passed through StripCode(kCommentsAndStrings).
/// Preprocessor directives are kept as ordinary tokens (`#`, `include`, ...).
std::vector<Token> Tokenize(const std::string& stripped);

/// True when tokens[i] is punctuation with exactly this text.
bool PunctIs(const std::vector<Token>& tokens, size_t i, const char* text);

}  // namespace ds::analysis

#endif  // DS_ANALYSIS_TOKENIZER_H_
