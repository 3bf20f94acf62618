#include "query/lexer.h"

#include <cctype>
#include <cstdlib>
#include <string>

#include "core/temporal/instant.h"

namespace tchimera {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Result<std::vector<Token>> Run(size_t max_tokens) {
    std::vector<Token> out;
    while (out.size() < max_tokens) {
      SkipSpaceAndComments();
      Token tok;
      tok.position = pos_;
      if (pos_ >= input_.size()) {
        tok.kind = TokenKind::kEnd;
        tok.end = pos_;
        out.push_back(tok);
        return out;
      }
      TCH_RETURN_IF_ERROR(Next(&tok));
      tok.end = pos_;
      out.push_back(std::move(tok));
    }
    return out;
  }

 private:
  void SkipSpaceAndComments() {
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '-' && pos_ + 1 < input_.size() &&
                 input_[pos_ + 1] == '-') {
        // SQL-style line comment.
        while (pos_ < input_.size() && input_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  Status ErrorHere(const std::string& what) {
    return Status::InvalidArgument(what + " at position " +
                                   std::to_string(pos_));
  }

  Status LexQuoted(Token* tok, TokenKind kind) {
    ++pos_;  // opening quote
    std::string body;
    while (pos_ < input_.size()) {
      char c = input_[pos_++];
      if (c == '\'') {
        if (kind == TokenKind::kCharLit && body.size() != 1) {
          return ErrorHere("char literal must contain exactly one character");
        }
        tok->kind = kind;
        tok->text = std::move(body);
        return Status::OK();
      }
      if (c == '\\') {
        if (pos_ >= input_.size()) return ErrorHere("unterminated escape");
        char e = input_[pos_++];
        switch (e) {
          case '\'':
            body.push_back('\'');
            break;
          case '\\':
            body.push_back('\\');
            break;
          case 'n':
            body.push_back('\n');
            break;
          case 't':
            body.push_back('\t');
            break;
          default:
            return ErrorHere("bad escape sequence");
        }
      } else {
        body.push_back(c);
      }
    }
    return ErrorHere("unterminated string literal");
  }

  Status LexNumber(Token* tok) {
    size_t start = pos_;
    bool is_real = false;
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' && pos_ + 1 < input_.size() &&
                 std::isdigit(static_cast<unsigned char>(input_[pos_ + 1]))) {
        is_real = true;
        ++pos_;
      } else if ((c == 'e' || c == 'E') && pos_ + 1 < input_.size()) {
        size_t next = pos_ + 1;
        if (input_[next] == '+' || input_[next] == '-') ++next;
        if (next < input_.size() &&
            std::isdigit(static_cast<unsigned char>(input_[next]))) {
          is_real = true;
          pos_ = next + 1;
        } else {
          break;
        }
      } else {
        break;
      }
    }
    std::string text(input_.substr(start, pos_ - start));
    if (is_real) {
      tok->kind = TokenKind::kReal;
      tok->real_value = std::strtod(text.c_str(), nullptr);
    } else {
      tok->kind = TokenKind::kInteger;
      tok->int_value = std::strtoll(text.c_str(), nullptr, 10);
    }
    return Status::OK();
  }

  Status Next(Token* tok) {
    char c = input_[pos_];
    // Quoted literals.
    if (c == '\'') return LexQuoted(tok, TokenKind::kString);
    if (c == 'c' && pos_ + 1 < input_.size() && input_[pos_ + 1] == '\'') {
      ++pos_;
      return LexQuoted(tok, TokenKind::kCharLit);
    }
    // Oid / time literals: i<digits>, t<digits>, tnow — only when not part
    // of a longer identifier.
    if ((c == 'i' || c == 't') && pos_ + 1 < input_.size()) {
      size_t end = pos_ + 1;
      if (c == 't' && input_.compare(end, 3, "now") == 0) {
        end += 3;
      } else {
        while (end < input_.size() &&
               std::isdigit(static_cast<unsigned char>(input_[end]))) {
          ++end;
        }
      }
      bool has_body = end > pos_ + 1;
      bool terminated = end >= input_.size() || !IsIdentChar(input_[end]);
      if (has_body && terminated) {
        std::string body(input_.substr(pos_ + 1, end - pos_ - 1));
        if (c == 'i') {
          tok->kind = TokenKind::kOidLit;
          tok->int_value = std::strtoll(body.c_str(), nullptr, 10);
        } else {
          tok->kind = TokenKind::kTimeLit;
          tok->int_value =
              body == "now" ? kNow : std::strtoll(body.c_str(), nullptr, 10);
        }
        pos_ = end;
        return Status::OK();
      }
    }
    if (IsIdentStart(c)) {
      size_t start = pos_;
      ++pos_;
      while (pos_ < input_.size() && IsIdentChar(input_[pos_])) ++pos_;
      std::string word(input_.substr(start, pos_ - start));
      std::string lower = word;
      for (char& ch : lower) {
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
      }
      if (IsTqlKeyword(lower)) {
        tok->kind = TokenKind::kKeyword;
        tok->text = std::move(lower);
      } else {
        tok->kind = TokenKind::kIdentifier;
        tok->text = std::move(word);
      }
      return Status::OK();
    }
    if (std::isdigit(static_cast<unsigned char>(c))) return LexNumber(tok);
    // A `$name` placeholder (a trigger action's `$self`).
    if (c == '$' && pos_ + 1 < input_.size() &&
        IsIdentStart(input_[pos_ + 1])) {
      size_t start = ++pos_;
      while (pos_ < input_.size() && IsIdentChar(input_[pos_])) ++pos_;
      tok->kind = TokenKind::kPlaceholder;
      tok->text = std::string(input_.substr(start, pos_ - start));
      return Status::OK();
    }
    // Punctuation.
    ++pos_;
    switch (c) {
      case '(':
        tok->kind = TokenKind::kLParen;
        return Status::OK();
      case ')':
        tok->kind = TokenKind::kRParen;
        return Status::OK();
      case '{':
        tok->kind = TokenKind::kLBrace;
        return Status::OK();
      case '}':
        tok->kind = TokenKind::kRBrace;
        return Status::OK();
      case '[':
        tok->kind = TokenKind::kLBracket;
        return Status::OK();
      case ']':
        tok->kind = TokenKind::kRBracket;
        return Status::OK();
      case ',':
        tok->kind = TokenKind::kComma;
        return Status::OK();
      case ':':
        tok->kind = TokenKind::kColon;
        return Status::OK();
      case ';':
        tok->kind = TokenKind::kSemicolon;
        return Status::OK();
      case '.':
        tok->kind = TokenKind::kDot;
        return Status::OK();
      case '@':
        tok->kind = TokenKind::kAt;
        return Status::OK();
      case '=':
        tok->kind = TokenKind::kEq;
        return Status::OK();
      case '+':
        tok->kind = TokenKind::kPlus;
        return Status::OK();
      case '-':
        tok->kind = TokenKind::kMinus;
        return Status::OK();
      case '*':
        tok->kind = TokenKind::kStar;
        return Status::OK();
      case '/':
        tok->kind = TokenKind::kSlash;
        return Status::OK();
      case '<':
        if (pos_ < input_.size() && input_[pos_] == '=') {
          ++pos_;
          tok->kind = TokenKind::kLe;
        } else if (pos_ < input_.size() && input_[pos_] == '>') {
          ++pos_;
          tok->kind = TokenKind::kNeq;
        } else {
          tok->kind = TokenKind::kLt;
        }
        return Status::OK();
      case '>':
        if (pos_ < input_.size() && input_[pos_] == '=') {
          ++pos_;
          tok->kind = TokenKind::kGe;
        } else {
          tok->kind = TokenKind::kGt;
        }
        return Status::OK();
      default:
        --pos_;
        return ErrorHere(std::string("unexpected character '") + c + "'");
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view input,
                                   size_t max_tokens) {
  return Lexer(input).Run(max_tokens);
}

std::string CanonicalText(std::string_view input,
                          std::span<const Token> tokens) {
  std::string out;
  out.reserve(input.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (tok.kind == TokenKind::kEnd) break;
    if (i > 0 && tok.position > tokens[i - 1].end) out.push_back(' ');
    std::string_view slice =
        input.substr(tok.position, tok.end - tok.position);
    if (tok.kind != TokenKind::kString && tok.kind != TokenKind::kCharLit) {
      out.append(slice);
      continue;
    }
    for (char c : slice) {
      if (c == '\n') {
        out.append("\\n");
      } else {
        out.push_back(c);
      }
    }
  }
  return out;
}

}  // namespace tchimera
