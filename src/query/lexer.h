// Tokenizer for TQL. Keywords are case-insensitive (normalized to lower
// case); identifiers keep their spelling. `i<digits>` lexes as an oid
// literal and `t<digits>` / `tnow` as a time literal, matching the value
// notation of the paper's examples.
#ifndef TCHIMERA_QUERY_LEXER_H_
#define TCHIMERA_QUERY_LEXER_H_

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/token.h"

namespace tchimera {

// Tokenizes the input (the final token is kEnd). Fails with
// InvalidArgument on malformed literals or stray characters. With
// `max_tokens`, stops once that many tokens are lexed — a peek at the
// leading tokens that never reads the rest (the list then ends in kEnd
// only if the input did).
Result<std::vector<Token>> Tokenize(
    std::string_view input,
    size_t max_tokens = std::numeric_limits<size_t>::max());

// The canonical one-line text of `tokens`, lexed from `input`: each
// token's source slice in order, one space wherever the source had
// whitespace or a comment between two tokens, and a raw newline inside a
// literal written as `\n`. Re-lexing it yields the same tokens. It is a
// statement's plan-cache key, its journaled text and, for a trigger or
// constraint, its stored definition.
std::string CanonicalText(std::string_view input,
                          std::span<const Token> tokens);

}  // namespace tchimera

#endif  // TCHIMERA_QUERY_LEXER_H_
