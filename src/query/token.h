// Tokens of the TQL surface language (the small query / definition
// language layered over the T_Chimera model; see parser.h for the
// grammar).
#ifndef TCHIMERA_QUERY_TOKEN_H_
#define TCHIMERA_QUERY_TOKEN_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace tchimera {

enum class TokenKind {
  kEnd,         // end of input
  kIdentifier,  // names: classes, attributes, variables
  kKeyword,     // reserved words (normalized to lower case)
  kInteger,     // 42
  kReal,        // 3.5
  kString,      // 'text'
  kCharLit,     // c'x'
  kOidLit,      // i7
  kTimeLit,     // t42 / tnow
  kPlaceholder, // $self (trigger actions; text is the name after '$')
  // punctuation / operators
  kLParen,      // (
  kRParen,      // )
  kLBrace,      // {
  kRBrace,      // }
  kLBracket,    // [
  kRBracket,    // ]
  kComma,       // ,
  kColon,       // :
  kSemicolon,   // ;
  kDot,         // .
  kAt,          // @
  kEq,          // =
  kNeq,         // <>
  kLt,          // <
  kLe,          // <=
  kGt,          // >
  kGe,          // >=
  kPlus,        // +
  kMinus,       // -
  kStar,        // *
  kSlash,       // /
};

const char* TokenKindName(TokenKind kind);

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;     // identifier / keyword spelling, string body
  int64_t int_value = 0;
  double real_value = 0.0;
  size_t position = 0;  // byte offset in the input, for error messages
  size_t end = 0;       // one past the last byte of the token's spelling

  bool IsKeyword(std::string_view kw) const {
    return kind == TokenKind::kKeyword && text == kw;
  }
  std::string Describe() const;
};

// True if `word` (lower-cased) is a reserved keyword of TQL.
bool IsTqlKeyword(std::string_view word);

}  // namespace tchimera

#endif  // TCHIMERA_QUERY_TOKEN_H_
