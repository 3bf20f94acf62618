#include "query/token.h"

#include <algorithm>
#include <array>

namespace tchimera {
namespace {

// Sorted for binary search.
constexpr std::array<std::string_view, 46> kKeywords = {
    "advance",  "and",        "at",        "attributes", "c-attributes",
    "check",    "class",      "classes",   "create",     "define",
    "defined",  "delete",     "drop",      "during",     "end",
    "explain",  "false",      "from",      "history",    "in",
    "lifespan", "methods",    "migrate",   "not",        "now",
    "null",     "or",         "rec",       "select",     "set",
    "show",     "size",       "snapshot",  "tick",       "to",
    "true",     "under",      "update",    "vdeep",      "vequal",
    "videntical", "vinstant", "vweak",     "when",       "where",
    "object",
};

}  // namespace

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEnd:
      return "end of input";
    case TokenKind::kIdentifier:
      return "identifier";
    case TokenKind::kKeyword:
      return "keyword";
    case TokenKind::kInteger:
      return "integer";
    case TokenKind::kReal:
      return "real";
    case TokenKind::kString:
      return "string";
    case TokenKind::kCharLit:
      return "char";
    case TokenKind::kOidLit:
      return "oid";
    case TokenKind::kTimeLit:
      return "time";
    case TokenKind::kPlaceholder:
      return "placeholder";
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kLBrace:
      return "'{'";
    case TokenKind::kRBrace:
      return "'}'";
    case TokenKind::kLBracket:
      return "'['";
    case TokenKind::kRBracket:
      return "']'";
    case TokenKind::kComma:
      return "','";
    case TokenKind::kColon:
      return "':'";
    case TokenKind::kSemicolon:
      return "';'";
    case TokenKind::kDot:
      return "'.'";
    case TokenKind::kAt:
      return "'@'";
    case TokenKind::kEq:
      return "'='";
    case TokenKind::kNeq:
      return "'<>'";
    case TokenKind::kLt:
      return "'<'";
    case TokenKind::kLe:
      return "'<='";
    case TokenKind::kGt:
      return "'>'";
    case TokenKind::kGe:
      return "'>='";
    case TokenKind::kPlus:
      return "'+'";
    case TokenKind::kMinus:
      return "'-'";
    case TokenKind::kStar:
      return "'*'";
    case TokenKind::kSlash:
      return "'/'";
  }
  return "token";
}

std::string Token::Describe() const {
  switch (kind) {
    case TokenKind::kIdentifier:
      return "identifier '" + text + "'";
    case TokenKind::kKeyword:
      return "keyword '" + text + "'";
    case TokenKind::kString:
      return "string '" + text + "'";
    case TokenKind::kPlaceholder:
      return "placeholder '$" + text + "'";
    default:
      return TokenKindName(kind);
  }
}

bool IsTqlKeyword(std::string_view word) {
  // kKeywords is small; linear scan keeps it robust against ordering
  // mistakes.
  return std::find(kKeywords.begin(), kKeywords.end(), word) !=
         kKeywords.end();
}

}  // namespace tchimera
