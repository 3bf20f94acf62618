#include "query/parser.h"

#include <cctype>
#include <optional>
#include <span>
#include <utility>

#include "core/types/type_parser.h"
#include "core/types/type_registry.h"
#include "query/lexer.h"

namespace tchimera {
namespace {

// The kind of statement that `tokens` (its leading tokens) starts, read
// from at most the first three; nullopt when they start none.
std::optional<Statement::Kind> LeadingStatementKind(
    std::span<const Token> tokens) {
  using Kind = Statement::Kind;
  auto is_name = [&tokens](size_t i, std::string_view text = {}) {
    return i < tokens.size() && tokens[i].kind == TokenKind::kIdentifier &&
           (text.empty() || tokens[i].text == text);
  };
  if (is_name(0)) {  // the definition words, case-insensitive like keywords
    std::string head = tokens[0].text;
    for (char& c : head) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (head == "trigger") return Kind::kTrigger;
    if (head == "constraint") return Kind::kConstraint;
    return std::nullopt;
  }
  if (tokens.empty() || tokens[0].kind != TokenKind::kKeyword) {
    return std::nullopt;
  }
  const std::string& head = tokens[0].text;
  // `index` is an ordinary identifier, so `create index` is index DDL
  // only when another name follows (object creation never puts a name
  // after the class name); `drop index` always is.
  if (head == "create") {
    return is_name(1, "index") && is_name(2) ? Kind::kCreateIndex
                                             : Kind::kCreate;
  }
  if (head == "drop") {
    return is_name(1, "index") ? Kind::kDropIndex : Kind::kDropClass;
  }
  static constexpr std::pair<std::string_view, Kind> kHeads[] = {
      {"explain", Kind::kExplain},   {"define", Kind::kDefineClass},
      {"update", Kind::kUpdate},     {"migrate", Kind::kMigrate},
      {"delete", Kind::kDelete},     {"select", Kind::kSelect},
      {"snapshot", Kind::kSnapshot}, {"history", Kind::kHistory},
      {"tick", Kind::kTick},         {"advance", Kind::kAdvance},
      {"check", Kind::kCheck},       {"when", Kind::kWhen},
      {"show", Kind::kShow},
  };
  for (const auto& [word, kind] : kHeads) {
    if (head == word) return kind;
  }
  return std::nullopt;
}

class Parser {
 public:
  Parser(std::string_view input, std::vector<Token> tokens)
      : input_(input), tokens_(std::move(tokens)) {}

  Result<Statement> ParseOneStatement() {
    size_t start = Peek().position;
    TCH_ASSIGN_OR_RETURN(Statement stmt, ParseStmt());
    stmt.position = start;
    Accept(TokenKind::kSemicolon);
    if (!AtEnd()) {
      return ErrorHere("unexpected input after statement: " +
                       Peek().Describe());
    }
    stmt.text = CanonicalText(input_, tokens_);
    return stmt;
  }

  Result<std::vector<Statement>> ParseAll() {
    std::vector<Statement> out;
    while (!AtEnd()) {
      const size_t first = pos_;
      size_t start = Peek().position;
      TCH_ASSIGN_OR_RETURN(Statement stmt, ParseStmt());
      stmt.position = start;
      stmt.text = CanonicalText(
          input_, std::span<const Token>(tokens_).subspan(first, pos_ - first));
      out.push_back(std::move(stmt));
      while (Accept(TokenKind::kSemicolon)) {
      }
    }
    return out;
  }

  Result<ExprPtr> ParseOneExpression() {
    TCH_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (!AtEnd()) {
      return ErrorHere("unexpected input after expression: " +
                       Peek().Describe());
    }
    return e;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }
  // End offset of the most recently consumed token (the end of whatever
  // was just parsed); used to close SourceSpans.
  size_t PrevEnd() const { return pos_ > 0 ? tokens_[pos_ - 1].end : 0; }

  bool Accept(TokenKind kind) {
    if (Peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AcceptKeyword(std::string_view kw) {
    if (Peek().IsKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ErrorHere(const std::string& what) const {
    return Status::InvalidArgument(what + " (at position " +
                                   std::to_string(Peek().position) + ")");
  }

  Status Expect(TokenKind kind) {
    if (Accept(kind)) return Status::OK();
    return ErrorHere(std::string("expected ") + TokenKindName(kind) +
                     ", found " + Peek().Describe());
  }
  Status ExpectKeyword(std::string_view kw) {
    if (AcceptKeyword(kw)) return Status::OK();
    return ErrorHere("expected keyword '" + std::string(kw) + "', found " +
                     Peek().Describe());
  }

  // A class / attribute / variable name. Non-reserved identifiers only.
  Result<std::string> ParseName() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return ErrorHere("expected a name, found " + Peek().Describe());
    }
    return Advance().text;
  }

  Result<Oid> ParseOid() {
    if (Peek().kind != TokenKind::kOidLit) {
      return ErrorHere("expected an oid (i<n>), found " + Peek().Describe());
    }
    return Oid{static_cast<uint64_t>(Advance().int_value)};
  }

  // instant := t<digits> | tnow | <digits>
  Result<TimePoint> ParseInstant() {
    if (Peek().kind == TokenKind::kTimeLit) return Advance().int_value;
    if (Peek().kind == TokenKind::kInteger) return Advance().int_value;
    if (AcceptKeyword("now")) return kNow;
    return ErrorHere("expected an instant, found " + Peek().Describe());
  }

  // An interval literal plus the spans of its two endpoint tokens (the
  // anchors for endpoint-swapping fix-its).
  struct ParsedInterval {
    Interval value{0, 0};
    SourceSpan start_span;
    SourceSpan end_span;
  };

  Result<ParsedInterval> ParseInterval() {
    TCH_RETURN_IF_ERROR(Expect(TokenKind::kLBracket));
    ParsedInterval out;
    size_t begin = Peek().position;
    TCH_ASSIGN_OR_RETURN(TimePoint s, ParseInstant());
    out.start_span = SourceSpan{begin, PrevEnd()};
    TCH_RETURN_IF_ERROR(Expect(TokenKind::kComma));
    begin = Peek().position;
    TCH_ASSIGN_OR_RETURN(TimePoint e, ParseInstant());
    out.end_span = SourceSpan{begin, PrevEnd()};
    TCH_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
    out.value = Interval(s, e);
    return out;
  }

  // The byte range that deletes declaration i from a comma-separated
  // section: the lone declaration takes the section keyword with it when
  // one is given; the first of several extends forward through the comma
  // (to the next declaration's start); later ones extend back over the
  // preceding comma.
  static std::vector<SourceSpan> SectionRemoveSpans(
      size_t keyword_begin, bool has_keyword,
      const std::vector<size_t>& begins, const std::vector<size_t>& ends) {
    std::vector<SourceSpan> spans(begins.size());
    for (size_t i = 0; i < begins.size(); ++i) {
      if (begins.size() == 1) {
        if (has_keyword) spans[i] = SourceSpan{keyword_begin, ends[0]};
        // No keyword (e.g. a lone FROM binder): leave the span invalid —
        // the list may not become empty.
      } else if (i == 0) {
        spans[i] = SourceSpan{begins[0], begins[1]};
      } else {
        spans[i] = SourceSpan{ends[i - 1], ends[i]};
      }
    }
    return spans;
  }

  // Types are parsed token-wise into the canonical textual syntax, then
  // handed to the type parser; this keeps one authoritative type grammar.
  Result<const Type*> ParseTypeRef() {
    std::string text;
    TCH_RETURN_IF_ERROR(CollectTypeText(&text));
    return ParseType(text);
  }

  Status CollectTypeText(std::string* out) {
    // type := name | name '(' ... ')' where the constructor names are
    // keywords-free identifiers like set-of / temporal / record-of.
    if (Peek().kind != TokenKind::kIdentifier &&
        !(Peek().kind == TokenKind::kKeyword)) {
      return ErrorHere("expected a type, found " + Peek().Describe());
    }
    out->append(Advance().text);
    if (!Accept(TokenKind::kLParen)) return Status::OK();
    out->push_back('(');
    if (!Accept(TokenKind::kRParen)) {
      while (true) {
        // record-of fields: name ':' type; others: type.
        if (Peek().kind == TokenKind::kIdentifier &&
            tokens_[pos_ + 1].kind == TokenKind::kColon) {
          out->append(Advance().text);
          Advance();  // ':'
          out->push_back(':');
        }
        TCH_RETURN_IF_ERROR(CollectTypeText(out));
        if (Accept(TokenKind::kComma)) {
          out->push_back(',');
          continue;
        }
        TCH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        break;
      }
    }
    out->push_back(')');
    return Status::OK();
  }

  // field := name ':' type
  Result<AttributeDef> ParseField() {
    TCH_ASSIGN_OR_RETURN(std::string name, ParseName());
    TCH_RETURN_IF_ERROR(Expect(TokenKind::kColon));
    TCH_ASSIGN_OR_RETURN(const Type* type, ParseTypeRef());
    return AttributeDef{std::move(name), type};
  }

  // msig := name '(' [type (, type)*] ')' ':' type
  Result<MethodDef> ParseMethodSig() {
    MethodDef m;
    TCH_ASSIGN_OR_RETURN(m.name, ParseName());
    TCH_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    if (!Accept(TokenKind::kRParen)) {
      while (true) {
        TCH_ASSIGN_OR_RETURN(const Type* t, ParseTypeRef());
        m.inputs.push_back(t);
        if (Accept(TokenKind::kComma)) continue;
        TCH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        break;
      }
    }
    TCH_RETURN_IF_ERROR(Expect(TokenKind::kColon));
    TCH_ASSIGN_OR_RETURN(m.output, ParseTypeRef());
    return m;
  }

  Result<Statement> ParseStmt() {
    using Kind = Statement::Kind;
    std::optional<Kind> kind =
        LeadingStatementKind(std::span<const Token>(tokens_).subspan(pos_));
    if (!kind.has_value()) {
      return ErrorHere("expected a statement, found " + Peek().Describe());
    }
    Advance();  // the leading word
    switch (*kind) {
      case Kind::kExplain: {
        if (AtEnd() || Peek().kind == TokenKind::kSemicolon) {
          return ErrorHere("explain requires a statement to explain");
        }
        TCH_ASSIGN_OR_RETURN(Statement inner, ParseStmt());
        if (inner.kind == Kind::kExplain) {
          return ErrorHere("explain cannot be nested");
        }
        Statement stmt;
        stmt.kind = Kind::kExplain;
        stmt.explain_inner = std::make_unique<Statement>(std::move(inner));
        return stmt;
      }
      case Kind::kDefineClass:
        return ParseDefineClass();
      case Kind::kDropClass:
        return ParseDropClass();
      case Kind::kCreateIndex:
        Advance();  // `index`
        return ParseCreateIndex();
      case Kind::kDropIndex: {
        Advance();  // `index`
        Statement s;
        s.kind = Kind::kDropIndex;
        s.drop_index.emplace();
        TCH_ASSIGN_OR_RETURN(s.drop_index->name, ParseName());
        return s;
      }
      case Kind::kCreate:
        return ParseCreate();
      case Kind::kUpdate:
        return ParseUpdate();
      case Kind::kMigrate:
        return ParseMigrate();
      case Kind::kDelete:
        return ParseDelete();
      case Kind::kSelect:
        return ParseSelect();
      case Kind::kSnapshot:
        return ParseSnapshot();
      case Kind::kHistory:
        return ParseHistory();
      case Kind::kTick:
        return ParseTick();
      case Kind::kAdvance:
        return ParseAdvance();
      case Kind::kWhen:
        return ParseWhen();
      case Kind::kShow:
        return ParseShow();
      case Kind::kCheck:
      case Kind::kTrigger:
      case Kind::kConstraint: {
        // A definition runs to the statement's end; its grammar belongs
        // to ActiveDatabase, which parses the statement's text.
        if (*kind != Kind::kCheck) {
          while (!AtEnd() && Peek().kind != TokenKind::kSemicolon) Advance();
        }
        Statement s;
        s.kind = *kind;
        return s;
      }
    }
    return ErrorHere("unhandled statement kind");
  }

  Result<Statement> ParseWhen() {
    Statement s;
    s.kind = Statement::Kind::kWhen;
    s.when.emplace();
    TCH_ASSIGN_OR_RETURN(s.when->condition, ParseExpr());
    if (AcceptKeyword("during")) {
      TCH_ASSIGN_OR_RETURN(ParsedInterval iv, ParseInterval());
      s.when->during = iv.value;
      s.when->during_start_span = iv.start_span;
      s.when->during_end_span = iv.end_span;
    }
    return s;
  }

  Result<Statement> ParseDefineClass() {
    TCH_RETURN_IF_ERROR(ExpectKeyword("class"));
    Statement s;
    s.kind = Statement::Kind::kDefineClass;
    s.define_class.emplace();
    ClassSpec& spec = s.define_class->spec;
    TCH_ASSIGN_OR_RETURN(spec.name, ParseName());
    if (AcceptKeyword("under")) {
      while (true) {
        TCH_ASSIGN_OR_RETURN(std::string super, ParseName());
        spec.superclasses.push_back(std::move(super));
        if (!Accept(TokenKind::kComma)) break;
      }
    }
    size_t attrs_kw = Peek().position;
    if (AcceptKeyword("attributes")) {
      std::vector<size_t> begins;
      std::vector<size_t> ends;
      while (true) {
        begins.push_back(Peek().position);
        TCH_ASSIGN_OR_RETURN(AttributeDef f, ParseField());
        ends.push_back(PrevEnd());
        spec.attributes.push_back(std::move(f));
        if (!Accept(TokenKind::kComma)) break;
      }
      s.define_class->attribute_spans =
          SectionRemoveSpans(attrs_kw, /*has_keyword=*/true, begins, ends);
    }
    if (AcceptKeyword("methods")) {
      while (true) {
        TCH_ASSIGN_OR_RETURN(MethodDef m, ParseMethodSig());
        spec.methods.push_back(std::move(m));
        if (!Accept(TokenKind::kComma)) break;
      }
    }
    size_t cattrs_kw = Peek().position;
    if (AcceptKeyword("c-attributes")) {
      std::vector<size_t> begins;
      std::vector<size_t> ends;
      while (true) {
        begins.push_back(Peek().position);
        TCH_ASSIGN_OR_RETURN(AttributeDef f, ParseField());
        ends.push_back(PrevEnd());
        spec.c_attributes.push_back(std::move(f));
        if (!Accept(TokenKind::kComma)) break;
      }
      s.define_class->c_attribute_spans =
          SectionRemoveSpans(cattrs_kw, /*has_keyword=*/true, begins, ends);
    }
    TCH_RETURN_IF_ERROR(ExpectKeyword("end"));
    return s;
  }

  Result<Statement> ParseDropClass() {
    TCH_RETURN_IF_ERROR(ExpectKeyword("class"));
    Statement s;
    s.kind = Statement::Kind::kDropClass;
    s.drop_class.emplace();
    TCH_ASSIGN_OR_RETURN(s.drop_class->name, ParseName());
    return s;
  }

  // create index <name> on <class> ( <attr> )   -- value index
  // create index <name> on <class> lifespan     -- lifespan timeline index
  Result<Statement> ParseCreateIndex() {
    Statement s;
    s.kind = Statement::Kind::kCreateIndex;
    s.create_index.emplace();
    TCH_ASSIGN_OR_RETURN(s.create_index->name, ParseName());
    if (!(Peek().kind == TokenKind::kIdentifier && Peek().text == "on")) {
      return ErrorHere("expected 'on' after the index name, found " +
                       Peek().Describe());
    }
    Advance();
    TCH_ASSIGN_OR_RETURN(s.create_index->class_name, ParseName());
    if (AcceptKeyword("lifespan")) {
      s.create_index->lifespan = true;
      return s;
    }
    TCH_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    TCH_ASSIGN_OR_RETURN(s.create_index->attr, ParseName());
    TCH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return s;
  }

  Result<Statement> ParseCreate() {
    Statement s;
    s.kind = Statement::Kind::kCreate;
    s.create.emplace();
    TCH_ASSIGN_OR_RETURN(s.create->class_name, ParseName());
    if (AcceptKeyword("at")) {
      TCH_ASSIGN_OR_RETURN(TimePoint t, ParseInstant());
      s.create->at = t;
    }
    if (Accept(TokenKind::kLParen)) {
      if (!Accept(TokenKind::kRParen)) {
        while (true) {
          TCH_ASSIGN_OR_RETURN(std::string name, ParseName());
          TCH_RETURN_IF_ERROR(Expect(TokenKind::kColon));
          TCH_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          s.create->inits.emplace_back(std::move(name), std::move(e));
          if (Accept(TokenKind::kComma)) continue;
          TCH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
          break;
        }
      }
    }
    return s;
  }

  Result<Statement> ParseUpdate() {
    Statement s;
    s.kind = Statement::Kind::kUpdate;
    s.update.emplace();
    TCH_ASSIGN_OR_RETURN(s.update->oid, ParseOid());
    TCH_RETURN_IF_ERROR(ExpectKeyword("set"));
    TCH_ASSIGN_OR_RETURN(s.update->attr, ParseName());
    TCH_RETURN_IF_ERROR(Expect(TokenKind::kEq));
    TCH_ASSIGN_OR_RETURN(s.update->value, ParseExpr());
    if (AcceptKeyword("during")) {
      TCH_ASSIGN_OR_RETURN(ParsedInterval iv, ParseInterval());
      s.update->during = iv.value;
      s.update->during_start_span = iv.start_span;
      s.update->during_end_span = iv.end_span;
    }
    return s;
  }

  Result<Statement> ParseMigrate() {
    Statement s;
    s.kind = Statement::Kind::kMigrate;
    s.migrate.emplace();
    TCH_ASSIGN_OR_RETURN(s.migrate->oid, ParseOid());
    TCH_RETURN_IF_ERROR(ExpectKeyword("to"));
    TCH_ASSIGN_OR_RETURN(s.migrate->to_class, ParseName());
    if (AcceptKeyword("set")) {
      while (true) {
        TCH_ASSIGN_OR_RETURN(std::string name, ParseName());
        TCH_RETURN_IF_ERROR(Expect(TokenKind::kEq));
        TCH_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        s.migrate->sets.emplace_back(std::move(name), std::move(e));
        if (!Accept(TokenKind::kComma)) break;
      }
    }
    return s;
  }

  Result<Statement> ParseDelete() {
    Statement s;
    s.kind = Statement::Kind::kDelete;
    s.del.emplace();
    TCH_ASSIGN_OR_RETURN(s.del->oid, ParseOid());
    return s;
  }

  Result<Statement> ParseSelect() {
    Statement s;
    s.kind = Statement::Kind::kSelect;
    s.select.emplace();
    while (true) {
      TCH_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      s.select->projections.push_back(std::move(e));
      if (!Accept(TokenKind::kComma)) break;
    }
    TCH_RETURN_IF_ERROR(ExpectKeyword("from"));
    std::vector<size_t> begins;
    std::vector<size_t> ends;
    while (true) {
      SelectBinder binder;
      binder.position = Peek().position;
      begins.push_back(binder.position);
      TCH_ASSIGN_OR_RETURN(binder.var, ParseName());
      TCH_RETURN_IF_ERROR(ExpectKeyword("in"));
      TCH_ASSIGN_OR_RETURN(binder.class_name, ParseName());
      ends.push_back(PrevEnd());
      s.select->binders.push_back(std::move(binder));
      if (!Accept(TokenKind::kComma)) break;
    }
    // A SELECT must keep at least one binder, so a lone binder gets no
    // removal span (has_keyword=false leaves it invalid).
    std::vector<SourceSpan> removals =
        SectionRemoveSpans(0, /*has_keyword=*/false, begins, ends);
    for (size_t i = 0; i < removals.size(); ++i) {
      s.select->binders[i].remove_span = removals[i];
    }
    if (AcceptKeyword("at")) {
      TCH_ASSIGN_OR_RETURN(TimePoint t, ParseInstant());
      s.select->at = t;
    }
    size_t where_kw = Peek().position;
    if (AcceptKeyword("where")) {
      TCH_ASSIGN_OR_RETURN(s.select->where, ParseExpr());
      s.select->where_span = SourceSpan{where_kw, PrevEnd()};
    }
    return s;
  }

  Result<Statement> ParseSnapshot() {
    Statement s;
    s.kind = Statement::Kind::kSnapshot;
    s.snapshot.emplace();
    TCH_ASSIGN_OR_RETURN(s.snapshot->oid, ParseOid());
    if (AcceptKeyword("at")) {
      TCH_ASSIGN_OR_RETURN(TimePoint t, ParseInstant());
      s.snapshot->at = t;
    }
    return s;
  }

  Result<Statement> ParseHistory() {
    Statement s;
    s.kind = Statement::Kind::kHistory;
    s.history.emplace();
    TCH_ASSIGN_OR_RETURN(s.history->oid, ParseOid());
    TCH_RETURN_IF_ERROR(Expect(TokenKind::kDot));
    TCH_ASSIGN_OR_RETURN(s.history->attr, ParseName());
    if (AcceptKeyword("during")) {
      TCH_ASSIGN_OR_RETURN(ParsedInterval iv, ParseInterval());
      s.history->during = iv.value;
      s.history->during_start_span = iv.start_span;
      s.history->during_end_span = iv.end_span;
    }
    return s;
  }

  Result<Statement> ParseTick() {
    Statement s;
    s.kind = Statement::Kind::kTick;
    s.tick.emplace();
    if (Peek().kind == TokenKind::kInteger) {
      s.tick->steps = Advance().int_value;
    }
    return s;
  }

  Result<Statement> ParseAdvance() {
    TCH_RETURN_IF_ERROR(ExpectKeyword("to"));
    Statement s;
    s.kind = Statement::Kind::kAdvance;
    s.advance.emplace();
    TCH_ASSIGN_OR_RETURN(s.advance->to, ParseInstant());
    return s;
  }

  Result<Statement> ParseShow() {
    Statement s;
    s.kind = Statement::Kind::kShow;
    s.show.emplace();
    if (AcceptKeyword("classes")) {
      s.show->what = ShowStmt::What::kClasses;
      return s;
    }
    if (AcceptKeyword("now")) {
      s.show->what = ShowStmt::What::kNow;
      return s;
    }
    if (AcceptKeyword("class")) {
      s.show->what = ShowStmt::What::kClass;
      TCH_ASSIGN_OR_RETURN(s.show->name, ParseName());
      return s;
    }
    if (AcceptKeyword("object")) {
      s.show->what = ShowStmt::What::kObject;
      TCH_ASSIGN_OR_RETURN(s.show->oid, ParseOid());
      return s;
    }
    return ErrorHere("expected CLASS, OBJECT, CLASSES or NOW after SHOW");
  }

  // --- expressions -------------------------------------------------------

  ExprPtr MakeExpr(ExprKind kind) {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->position = Peek().position;
    return e;
  }

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  // Closes a freshly built binary node's span: its operands' spans are
  // already set, so the whole expression runs from the left operand's
  // start to the last consumed token.
  void CloseBinarySpan(Expr* node) {
    node->span = SourceSpan{node->base->span.begin, PrevEnd()};
  }

  Result<ExprPtr> ParseOr() {
    TCH_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (Peek().IsKeyword("or")) {
      Advance();
      TCH_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      ExprPtr node = MakeExpr(ExprKind::kBinary);
      node->op = BinaryOp::kOr;
      node->base = std::move(lhs);
      node->rhs = std::move(rhs);
      CloseBinarySpan(node.get());
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    TCH_ASSIGN_OR_RETURN(ExprPtr lhs, ParseCmp());
    while (Peek().IsKeyword("and")) {
      Advance();
      TCH_ASSIGN_OR_RETURN(ExprPtr rhs, ParseCmp());
      ExprPtr node = MakeExpr(ExprKind::kBinary);
      node->op = BinaryOp::kAnd;
      node->base = std::move(lhs);
      node->rhs = std::move(rhs);
      CloseBinarySpan(node.get());
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<ExprPtr> ParseCmp() {
    TCH_ASSIGN_OR_RETURN(ExprPtr lhs, ParseSum());
    BinaryOp op;
    switch (Peek().kind) {
      case TokenKind::kEq:
        op = BinaryOp::kEq;
        break;
      case TokenKind::kNeq:
        op = BinaryOp::kNeq;
        break;
      case TokenKind::kLt:
        op = BinaryOp::kLt;
        break;
      case TokenKind::kLe:
        op = BinaryOp::kLe;
        break;
      case TokenKind::kGt:
        op = BinaryOp::kGt;
        break;
      case TokenKind::kGe:
        op = BinaryOp::kGe;
        break;
      case TokenKind::kKeyword:
        if (Peek().text == "in") {
          op = BinaryOp::kIn;
          break;
        }
        return lhs;
      default:
        return lhs;
    }
    Advance();
    TCH_ASSIGN_OR_RETURN(ExprPtr rhs, ParseSum());
    ExprPtr node = MakeExpr(ExprKind::kBinary);
    node->op = op;
    node->base = std::move(lhs);
    node->rhs = std::move(rhs);
    CloseBinarySpan(node.get());
    return node;
  }

  Result<ExprPtr> ParseSum() {
    TCH_ASSIGN_OR_RETURN(ExprPtr lhs, ParseProd());
    while (Peek().kind == TokenKind::kPlus ||
           Peek().kind == TokenKind::kMinus) {
      BinaryOp op = Peek().kind == TokenKind::kPlus ? BinaryOp::kAdd
                                                    : BinaryOp::kSub;
      Advance();
      TCH_ASSIGN_OR_RETURN(ExprPtr rhs, ParseProd());
      ExprPtr node = MakeExpr(ExprKind::kBinary);
      node->op = op;
      node->base = std::move(lhs);
      node->rhs = std::move(rhs);
      CloseBinarySpan(node.get());
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<ExprPtr> ParseProd() {
    TCH_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (Peek().kind == TokenKind::kStar ||
           Peek().kind == TokenKind::kSlash) {
      BinaryOp op = Peek().kind == TokenKind::kStar ? BinaryOp::kMul
                                                    : BinaryOp::kDiv;
      Advance();
      TCH_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      ExprPtr node = MakeExpr(ExprKind::kBinary);
      node->op = op;
      node->base = std::move(lhs);
      node->rhs = std::move(rhs);
      CloseBinarySpan(node.get());
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    size_t begin = Peek().position;
    if (AcceptKeyword("not")) {
      ExprPtr node = MakeExpr(ExprKind::kNot);
      TCH_ASSIGN_OR_RETURN(node->base, ParseUnary());
      node->span = SourceSpan{begin, PrevEnd()};
      return node;
    }
    if (Accept(TokenKind::kMinus)) {
      ExprPtr node = MakeExpr(ExprKind::kNegate);
      TCH_ASSIGN_OR_RETURN(node->base, ParseUnary());
      node->span = SourceSpan{begin, PrevEnd()};
      return node;
    }
    return ParsePostfix();
  }

  Result<ExprPtr> ParsePostfix() {
    TCH_ASSIGN_OR_RETURN(ExprPtr e, ParsePrimary());
    while (Accept(TokenKind::kDot)) {
      ExprPtr node = MakeExpr(ExprKind::kAttrAccess);
      TCH_ASSIGN_OR_RETURN(node->name, ParseName());
      node->base = std::move(e);
      size_t at_begin = Peek().position;
      if (Accept(TokenKind::kAt)) {
        TCH_ASSIGN_OR_RETURN(TimePoint t, ParseInstant());
        node->at = t;
        node->at_span = SourceSpan{at_begin, PrevEnd()};
      }
      node->span = SourceSpan{node->base->span.begin, PrevEnd()};
      e = std::move(node);
    }
    return e;
  }

  // Wraps ParsePrimaryInner to stamp the span. A parenthesized expression
  // deliberately gets the paren-inclusive span (overwriting the inner
  // one), so deletions anchored to operand spans keep parens balanced.
  Result<ExprPtr> ParsePrimary() {
    size_t begin = Peek().position;
    TCH_ASSIGN_OR_RETURN(ExprPtr e, ParsePrimaryInner());
    e->span = SourceSpan{begin, PrevEnd()};
    return e;
  }

  Result<ExprPtr> ParsePrimaryInner() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kInteger: {
        ExprPtr e = MakeExpr(ExprKind::kLiteral);
        e->literal = Value::Integer(Advance().int_value);
        return e;
      }
      case TokenKind::kReal: {
        ExprPtr e = MakeExpr(ExprKind::kLiteral);
        e->literal = Value::Real(Advance().real_value);
        return e;
      }
      case TokenKind::kString: {
        ExprPtr e = MakeExpr(ExprKind::kLiteral);
        e->literal = Value::String(Advance().text);
        return e;
      }
      case TokenKind::kCharLit: {
        ExprPtr e = MakeExpr(ExprKind::kLiteral);
        e->literal = Value::Char(Advance().text[0]);
        return e;
      }
      case TokenKind::kOidLit: {
        ExprPtr e = MakeExpr(ExprKind::kLiteral);
        e->literal = Value::OfOid(Oid{static_cast<uint64_t>(
            Advance().int_value)});
        return e;
      }
      case TokenKind::kTimeLit: {
        ExprPtr e = MakeExpr(ExprKind::kLiteral);
        e->literal = Value::Time(Advance().int_value);
        return e;
      }
      case TokenKind::kLParen: {
        Advance();
        TCH_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        TCH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return e;
      }
      case TokenKind::kLBrace: {
        Advance();
        ExprPtr e = MakeExpr(ExprKind::kSetCtor);
        if (!Accept(TokenKind::kRBrace)) {
          while (true) {
            TCH_ASSIGN_OR_RETURN(ExprPtr el, ParseExpr());
            e->args.push_back(std::move(el));
            if (Accept(TokenKind::kComma)) continue;
            TCH_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
            break;
          }
        }
        return e;
      }
      case TokenKind::kLBracket: {
        Advance();
        ExprPtr e = MakeExpr(ExprKind::kListCtor);
        if (!Accept(TokenKind::kRBracket)) {
          while (true) {
            TCH_ASSIGN_OR_RETURN(ExprPtr el, ParseExpr());
            e->args.push_back(std::move(el));
            if (Accept(TokenKind::kComma)) continue;
            TCH_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
            break;
          }
        }
        return e;
      }
      case TokenKind::kKeyword: {
        if (tok.text == "null") {
          Advance();
          ExprPtr e = MakeExpr(ExprKind::kLiteral);
          e->literal = Value::Null();
          return e;
        }
        if (tok.text == "true" || tok.text == "false") {
          ExprPtr e = MakeExpr(ExprKind::kLiteral);
          e->literal = Value::Bool(Advance().text == "true");
          return e;
        }
        if (tok.text == "now") {
          Advance();
          ExprPtr e = MakeExpr(ExprKind::kLiteral);
          e->literal = Value::Time(kNow);
          return e;
        }
        if (tok.text == "rec") {
          Advance();
          TCH_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
          ExprPtr e = MakeExpr(ExprKind::kRecCtor);
          if (!Accept(TokenKind::kRParen)) {
            while (true) {
              TCH_ASSIGN_OR_RETURN(std::string name, ParseName());
              TCH_RETURN_IF_ERROR(Expect(TokenKind::kColon));
              TCH_ASSIGN_OR_RETURN(ExprPtr fv, ParseExpr());
              e->rec_fields.emplace_back(std::move(name), std::move(fv));
              if (Accept(TokenKind::kComma)) continue;
              TCH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
              break;
            }
          }
          return e;
        }
        if (tok.text == "size" || tok.text == "defined" ||
            tok.text == "snapshot" || tok.text == "videntical" ||
            tok.text == "vequal" || tok.text == "vinstant" ||
            tok.text == "vweak" || tok.text == "vdeep" ||
            tok.text == "lifespan") {
          ExprPtr e = MakeExpr(ExprKind::kCall);
          e->name = Advance().text;
          TCH_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
          if (!Accept(TokenKind::kRParen)) {
            while (true) {
              TCH_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
              e->args.push_back(std::move(a));
              if (Accept(TokenKind::kComma)) continue;
              TCH_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
              break;
            }
          }
          return e;
        }
        return ErrorHere("unexpected " + tok.Describe() + " in expression");
      }
      case TokenKind::kIdentifier: {
        ExprPtr e = MakeExpr(ExprKind::kVar);
        e->name = Advance().text;
        return e;
      }
      default:
        return ErrorHere("unexpected " + tok.Describe() + " in expression");
    }
  }

  std::string_view input_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> ParseStatement(std::string_view input) {
  TCH_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  return Parser(input, std::move(tokens)).ParseOneStatement();
}

Result<std::vector<Statement>> ParseScript(std::string_view input) {
  TCH_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  return Parser(input, std::move(tokens)).ParseAll();
}

Result<ExprPtr> ParseExpression(std::string_view input) {
  TCH_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  return Parser(input, std::move(tokens)).ParseOneExpression();
}

Result<Statement::Kind> PeekStatementKind(std::string_view statement) {
  TCH_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                       Tokenize(statement, /*max_tokens=*/3));
  std::optional<Statement::Kind> kind = LeadingStatementKind(tokens);
  if (!kind.has_value()) {
    return Status::InvalidArgument("expected a statement, found " +
                                   tokens.front().Describe());
  }
  return *kind;
}

}  // namespace tchimera
