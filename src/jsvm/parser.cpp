#include "src/jsvm/parser.h"

#include <utility>

namespace offload::jsvm {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view source)
      : src_(source), lexer_(source), cur_(lexer_.next()) {}

  std::vector<StmtPtr> parse_statements_until_eof() {
    std::vector<StmtPtr> stmts;
    while (!at(TokenKind::kEof)) {
      stmts.push_back(parse_statement());
    }
    return stmts;
  }

  std::unique_ptr<FunctionExpr> parse_single_function() {
    if (!at(TokenKind::kFunction)) fail("expected 'function'");
    auto fn = parse_function_literal();
    // Allow a trailing semicolon; nothing else.
    if (at(TokenKind::kSemicolon)) advance();
    if (!at(TokenKind::kEof)) fail("trailing tokens after function");
    return fn;
  }

 private:
  // ----------------------------------------------------------- statements

  StmtPtr parse_statement() {
    switch (peek().kind) {
      case TokenKind::kVar: return parse_var_decl(/*eat_semicolon=*/true);
      case TokenKind::kFunction: return parse_function_decl();
      case TokenKind::kLBrace: return parse_block();
      case TokenKind::kIf: return parse_if();
      case TokenKind::kWhile: return parse_while();
      case TokenKind::kFor: return parse_for();
      case TokenKind::kReturn: return parse_return();
      case TokenKind::kBreak: {
        auto s = make_stmt<BreakStmt>();
        advance();
        expect(TokenKind::kSemicolon);
        return s;
      }
      case TokenKind::kContinue: {
        auto s = make_stmt<ContinueStmt>();
        advance();
        expect(TokenKind::kSemicolon);
        return s;
      }
      default: {
        auto s = make_stmt<ExprStmt>();
        s->expr = parse_expression();
        expect(TokenKind::kSemicolon);
        return s;
      }
    }
  }

  StmtPtr parse_var_decl(bool eat_semicolon) {
    auto s = make_stmt<VarDeclStmt>();
    expect(TokenKind::kVar);
    s->name = expect_identifier();
    if (at(TokenKind::kAssign)) {
      advance();
      s->init = parse_expression();
    }
    if (eat_semicolon) expect(TokenKind::kSemicolon);
    return s;
  }

  StmtPtr parse_function_decl() {
    auto s = make_stmt<FunctionDeclStmt>();
    s->function = parse_function_literal();
    if (s->function->name.empty()) {
      fail("function declaration requires a name");
    }
    return s;
  }

  std::unique_ptr<FunctionExpr> parse_function_literal() {
    auto fn = std::make_unique<FunctionExpr>();
    fn->begin = peek().begin;
    fn->src_begin = peek().begin;
    expect(TokenKind::kFunction);
    if (at(TokenKind::kIdentifier)) {
      fn->name = peek().text;
      advance();
    }
    expect(TokenKind::kLParen);
    if (!at(TokenKind::kRParen)) {
      while (true) {
        fn->params.push_back(expect_identifier());
        if (!at(TokenKind::kComma)) break;
        advance();
      }
    }
    expect(TokenKind::kRParen);
    auto block = parse_block_raw();
    fn->src_end = prev_end_;
    fn->body = std::move(block);
    return fn;
  }

  std::unique_ptr<BlockStmt> parse_block_raw() {
    auto b = std::make_unique<BlockStmt>();
    b->begin = peek().begin;
    expect(TokenKind::kLBrace);
    while (!at(TokenKind::kRBrace)) {
      if (at(TokenKind::kEof)) fail("unterminated block");
      b->statements.push_back(parse_statement());
    }
    expect(TokenKind::kRBrace);
    return b;
  }

  StmtPtr parse_block() { return parse_block_raw(); }

  StmtPtr parse_if() {
    auto s = make_stmt<IfStmt>();
    expect(TokenKind::kIf);
    expect(TokenKind::kLParen);
    s->condition = parse_expression();
    expect(TokenKind::kRParen);
    s->consequent = parse_statement();
    if (at(TokenKind::kElse)) {
      advance();
      s->alternate = parse_statement();
    }
    return s;
  }

  StmtPtr parse_while() {
    auto s = make_stmt<WhileStmt>();
    expect(TokenKind::kWhile);
    expect(TokenKind::kLParen);
    s->condition = parse_expression();
    expect(TokenKind::kRParen);
    s->body = parse_statement();
    return s;
  }

  StmtPtr parse_for() {
    auto s = make_stmt<ForStmt>();
    expect(TokenKind::kFor);
    expect(TokenKind::kLParen);
    if (at(TokenKind::kSemicolon)) {
      advance();
    } else if (at(TokenKind::kVar)) {
      s->init = parse_var_decl(/*eat_semicolon=*/true);
    } else {
      auto e = make_stmt<ExprStmt>();
      e->expr = parse_expression();
      s->init = std::move(e);
      expect(TokenKind::kSemicolon);
    }
    if (!at(TokenKind::kSemicolon)) s->condition = parse_expression();
    expect(TokenKind::kSemicolon);
    if (!at(TokenKind::kRParen)) s->update = parse_expression();
    expect(TokenKind::kRParen);
    s->body = parse_statement();
    return s;
  }

  StmtPtr parse_return() {
    auto s = make_stmt<ReturnStmt>();
    expect(TokenKind::kReturn);
    if (!at(TokenKind::kSemicolon)) s->value = parse_expression();
    expect(TokenKind::kSemicolon);
    return s;
  }

  // ---------------------------------------------------------- expressions

  ExprPtr parse_expression() { return parse_assignment(); }

  ExprPtr parse_assignment() {
    ExprPtr lhs = parse_conditional();
    AssignOp op;
    switch (peek().kind) {
      case TokenKind::kAssign: op = AssignOp::kAssign; break;
      case TokenKind::kPlusAssign: op = AssignOp::kAdd; break;
      case TokenKind::kMinusAssign: op = AssignOp::kSub; break;
      case TokenKind::kStarAssign: op = AssignOp::kMul; break;
      case TokenKind::kSlashAssign: op = AssignOp::kDiv; break;
      default: return lhs;
    }
    if (lhs->kind != ExprKind::kIdentifier && lhs->kind != ExprKind::kMember &&
        lhs->kind != ExprKind::kIndex) {
      fail("invalid assignment target");
    }
    auto e = make_expr<AssignExpr>(lhs->begin);
    e->op = op;
    advance();
    e->target = std::move(lhs);
    e->value = parse_assignment();  // right associative
    return e;
  }

  ExprPtr parse_conditional() {
    ExprPtr cond = parse_logical_or();
    if (!at(TokenKind::kQuestion)) return cond;
    auto e = make_expr<ConditionalExpr>(cond->begin);
    advance();
    e->condition = std::move(cond);
    e->consequent = parse_assignment();
    expect(TokenKind::kColon);
    e->alternate = parse_assignment();
    return e;
  }

  ExprPtr parse_logical_or() {
    ExprPtr lhs = parse_logical_and();
    while (at(TokenKind::kOrOr)) {
      auto e = make_expr<LogicalExpr>(lhs->begin);
      e->op = LogicalOp::kOr;
      advance();
      e->lhs = std::move(lhs);
      e->rhs = parse_logical_and();
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_logical_and() {
    ExprPtr lhs = parse_equality();
    while (at(TokenKind::kAndAnd)) {
      auto e = make_expr<LogicalExpr>(lhs->begin);
      e->op = LogicalOp::kAnd;
      advance();
      e->lhs = std::move(lhs);
      e->rhs = parse_equality();
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_equality() {
    ExprPtr lhs = parse_relational();
    while (at(TokenKind::kEq) || at(TokenKind::kNeq)) {
      BinaryOp op = at(TokenKind::kEq) ? BinaryOp::kEq : BinaryOp::kNeq;
      auto e = make_expr<BinaryExpr>(lhs->begin);
      e->op = op;
      advance();
      e->lhs = std::move(lhs);
      e->rhs = parse_relational();
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_relational() {
    ExprPtr lhs = parse_additive();
    while (true) {
      BinaryOp op;
      switch (peek().kind) {
        case TokenKind::kLt: op = BinaryOp::kLt; break;
        case TokenKind::kGt: op = BinaryOp::kGt; break;
        case TokenKind::kLe: op = BinaryOp::kLe; break;
        case TokenKind::kGe: op = BinaryOp::kGe; break;
        default: return lhs;
      }
      auto e = make_expr<BinaryExpr>(lhs->begin);
      e->op = op;
      advance();
      e->lhs = std::move(lhs);
      e->rhs = parse_additive();
      lhs = std::move(e);
    }
  }

  ExprPtr parse_additive() {
    ExprPtr lhs = parse_multiplicative();
    while (at(TokenKind::kPlus) || at(TokenKind::kMinus)) {
      BinaryOp op = at(TokenKind::kPlus) ? BinaryOp::kAdd : BinaryOp::kSub;
      auto e = make_expr<BinaryExpr>(lhs->begin);
      e->op = op;
      advance();
      e->lhs = std::move(lhs);
      e->rhs = parse_multiplicative();
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_multiplicative() {
    ExprPtr lhs = parse_unary();
    while (true) {
      BinaryOp op;
      switch (peek().kind) {
        case TokenKind::kStar: op = BinaryOp::kMul; break;
        case TokenKind::kSlash: op = BinaryOp::kDiv; break;
        case TokenKind::kPercent: op = BinaryOp::kMod; break;
        default: return lhs;
      }
      auto e = make_expr<BinaryExpr>(lhs->begin);
      e->op = op;
      advance();
      e->lhs = std::move(lhs);
      e->rhs = parse_unary();
      lhs = std::move(e);
    }
  }

  ExprPtr parse_unary() {
    switch (peek().kind) {
      case TokenKind::kMinus: {
        auto e = make_expr<UnaryExpr>(peek().begin);
        e->op = UnaryOp::kNeg;
        advance();
        e->operand = parse_unary();
        return e;
      }
      case TokenKind::kNot: {
        auto e = make_expr<UnaryExpr>(peek().begin);
        e->op = UnaryOp::kNot;
        advance();
        e->operand = parse_unary();
        return e;
      }
      case TokenKind::kTypeof: {
        auto e = make_expr<UnaryExpr>(peek().begin);
        e->op = UnaryOp::kTypeof;
        advance();
        e->operand = parse_unary();
        return e;
      }
      case TokenKind::kPlusPlus:
      case TokenKind::kMinusMinus: {
        auto e = make_expr<UpdateExpr>(peek().begin);
        e->increment = at(TokenKind::kPlusPlus);
        e->prefix = true;
        advance();
        e->target = parse_unary();
        check_lvalue(*e->target);
        return e;
      }
      default:
        return parse_postfix();
    }
  }

  void check_lvalue(const Expr& e) {
    if (e.kind != ExprKind::kIdentifier && e.kind != ExprKind::kMember &&
        e.kind != ExprKind::kIndex) {
      fail("++/-- requires a variable or property");
    }
  }

  ExprPtr parse_postfix() {
    ExprPtr e = parse_call_member();
    if (at(TokenKind::kPlusPlus) || at(TokenKind::kMinusMinus)) {
      auto u = make_expr<UpdateExpr>(e->begin);
      u->increment = at(TokenKind::kPlusPlus);
      u->prefix = false;
      advance();
      check_lvalue(*e);
      u->target = std::move(e);
      return u;
    }
    return e;
  }

  ExprPtr parse_call_member() {
    ExprPtr e = parse_primary();
    while (true) {
      if (at(TokenKind::kDot)) {
        auto m = make_expr<MemberExpr>(e->begin);
        advance();
        m->property = expect_identifier();
        m->object = std::move(e);
        e = std::move(m);
      } else if (at(TokenKind::kLBracket)) {
        auto ix = make_expr<IndexExpr>(e->begin);
        advance();
        ix->index = parse_expression();
        expect(TokenKind::kRBracket);
        ix->object = std::move(e);
        e = std::move(ix);
      } else if (at(TokenKind::kLParen)) {
        auto c = make_expr<CallExpr>(e->begin);
        advance();
        if (!at(TokenKind::kRParen)) {
          while (true) {
            c->args.push_back(parse_expression());
            if (!at(TokenKind::kComma)) break;
            advance();
          }
        }
        expect(TokenKind::kRParen);
        c->callee = std::move(e);
        e = std::move(c);
      } else {
        return e;
      }
    }
  }

  ExprPtr parse_primary() {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::kNumber: {
        auto e = make_expr<NumberExpr>(t.begin);
        e->value = t.number;
        advance();
        return e;
      }
      case TokenKind::kString: {
        auto e = make_expr<StringExpr>(t.begin);
        e->value = t.text;
        advance();
        return e;
      }
      case TokenKind::kTrue:
      case TokenKind::kFalse: {
        auto e = make_expr<BoolExpr>(t.begin);
        e->value = t.kind == TokenKind::kTrue;
        advance();
        return e;
      }
      case TokenKind::kNull: {
        auto e = make_expr<NullExpr>(t.begin);
        advance();
        return e;
      }
      case TokenKind::kUndefined: {
        auto e = make_expr<UndefinedExpr>(t.begin);
        advance();
        return e;
      }
      case TokenKind::kThis: {
        auto e = make_expr<ThisExpr>(t.begin);
        advance();
        return e;
      }
      case TokenKind::kIdentifier: {
        auto e = make_expr<IdentifierExpr>(t.begin);
        e->name = t.text;
        advance();
        return e;
      }
      case TokenKind::kFunction:
        return parse_function_literal();
      case TokenKind::kLParen: {
        advance();
        ExprPtr e = parse_expression();
        expect(TokenKind::kRParen);
        return e;
      }
      case TokenKind::kLBracket: {
        auto e = make_expr<ArrayExpr>(t.begin);
        if (lexer_.scan_number_list(e->numbers)) {
          // The lexer consumed everything through the ']'.
          prev_end_ = lexer_.offset();
          cur_ = lexer_.next();
          return e;
        }
        advance();
        if (!at(TokenKind::kRBracket)) {
          while (true) {
            e->elements.push_back(parse_expression());
            if (!at(TokenKind::kComma)) break;
            advance();
          }
        }
        expect(TokenKind::kRBracket);
        return e;
      }
      case TokenKind::kLBrace: {
        auto e = make_expr<ObjectExpr>(t.begin);
        advance();
        if (!at(TokenKind::kRBrace)) {
          while (true) {
            std::string key;
            if (at(TokenKind::kString)) {
              key = peek().text;
              advance();
            } else if (at(TokenKind::kNumber)) {
              // Numeric keys appear in snapshot env tables; store as text.
              key = src_slice(peek());
              advance();
            } else {
              key = expect_identifier_or_keyword();
            }
            expect(TokenKind::kColon);
            e->properties.emplace_back(std::move(key), parse_expression());
            if (!at(TokenKind::kComma)) break;
            advance();
          }
        }
        expect(TokenKind::kRBrace);
        return e;
      }
      default:
        fail(std::string("unexpected ") + token_kind_name(t.kind));
    }
  }

  // -------------------------------------------------------------- helpers

  template <typename T>
  std::unique_ptr<T> make_stmt() {
    auto s = std::make_unique<T>();
    s->begin = peek().begin;
    return s;
  }

  template <typename T>
  std::unique_ptr<T> make_expr(std::size_t begin) {
    auto e = std::make_unique<T>();
    e->begin = begin;
    return e;
  }

  /// The current token. Its text is valid only until the next advance().
  const Token& peek() const { return cur_; }
  bool at(TokenKind kind) const { return cur_.kind == kind; }

  void advance() {
    prev_end_ = cur_.end;
    cur_ = lexer_.next();
  }

  void expect(TokenKind kind) {
    if (!at(kind)) {
      fail(std::string("expected ") + token_kind_name(kind) + ", got " +
           token_kind_name(peek().kind));
    }
    advance();
  }

  std::string expect_identifier() {
    if (!at(TokenKind::kIdentifier)) {
      fail(std::string("expected identifier, got ") +
           token_kind_name(peek().kind));
    }
    std::string name(peek().text);
    advance();
    return name;
  }

  /// Object keys may be identifiers or (reserved) words like "length".
  std::string expect_identifier_or_keyword() {
    const Token& t = peek();
    // Keyword tokens are accepted as literal property names too.
    switch (t.kind) {
      case TokenKind::kIdentifier:
      case TokenKind::kVar: case TokenKind::kFunction: case TokenKind::kIf:
      case TokenKind::kElse: case TokenKind::kWhile: case TokenKind::kFor:
      case TokenKind::kReturn: case TokenKind::kBreak:
      case TokenKind::kContinue: case TokenKind::kTrue: case TokenKind::kFalse:
      case TokenKind::kNull: case TokenKind::kUndefined:
      case TokenKind::kTypeof: case TokenKind::kThis: {
        std::string name(t.text);
        advance();
        return name;
      }
      default:
        fail("expected property name");
    }
  }

  std::string src_slice(const Token& t) const {
    return std::string(src_.substr(t.begin, t.end - t.begin));
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(message, Lexer::line_of(src_, peek().begin));
  }

  std::string_view src_;
  Lexer lexer_;
  Token cur_;
  std::size_t prev_end_ = 0;  ///< end offset of the last consumed token
};

}  // namespace

ProgramPtr parse_program(std::string_view source, std::string origin) {
  auto program = std::make_shared<Program>();
  program->source = std::string(source);
  program->origin = std::move(origin);
  Parser parser(program->source);
  program->statements = parser.parse_statements_until_eof();
  return program;
}

ProgramPtr parse_function_source(std::string_view source, std::string origin) {
  auto program = std::make_shared<Program>();
  program->source = std::string(source);
  program->origin = std::move(origin);
  Parser parser(program->source);
  auto fn = parser.parse_single_function();
  auto stmt = std::make_unique<ExprStmt>();
  stmt->begin = fn->begin;
  stmt->expr = std::move(fn);
  program->statements.push_back(std::move(stmt));
  return program;
}

}  // namespace offload::jsvm
