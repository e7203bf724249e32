#include "src/jsvm/lexer.h"

#include <charconv>

namespace offload::jsvm {
namespace {

// ASCII character classes. Nothing in the program calls setlocale, so these
// give the "C" locale's answers without the <cctype> calls.
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }
constexpr bool is_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr bool is_ident_start(char c) {
  return is_alpha(c) || c == '_' || c == '$';
}
constexpr bool is_ident_part(char c) { return is_ident_start(c) || is_digit(c); }
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');  // \t \n \v \f \r
}

/// Keyword kind of `word`, or kIdentifier; keyed on the first character.
TokenKind keyword_kind(std::string_view word) {
  auto is = [&](std::string_view kw, TokenKind kind) {
    return word == kw ? kind : TokenKind::kIdentifier;
  };
  switch (word[0]) {
    case 'b': return is("break", TokenKind::kBreak);
    case 'c': return is("continue", TokenKind::kContinue);
    case 'e': return is("else", TokenKind::kElse);
    case 'f':
      if (word == "for") return TokenKind::kFor;
      if (word == "false") return TokenKind::kFalse;
      return is("function", TokenKind::kFunction);
    case 'i': return is("if", TokenKind::kIf);
    case 'n': return is("null", TokenKind::kNull);
    case 'r': return is("return", TokenKind::kReturn);
    case 't':
      if (word == "true") return TokenKind::kTrue;
      if (word == "this") return TokenKind::kThis;
      return is("typeof", TokenKind::kTypeof);
    case 'u': return is("undefined", TokenKind::kUndefined);
    case 'v': return is("var", TokenKind::kVar);
    case 'w': return is("while", TokenKind::kWhile);
    default: return TokenKind::kIdentifier;
  }
}

}  // namespace

const char* token_kind_name(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEof: return "end of input";
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kNumber: return "number";
    case TokenKind::kString: return "string";
    case TokenKind::kVar: return "'var'";
    case TokenKind::kFunction: return "'function'";
    case TokenKind::kIf: return "'if'";
    case TokenKind::kElse: return "'else'";
    case TokenKind::kWhile: return "'while'";
    case TokenKind::kFor: return "'for'";
    case TokenKind::kReturn: return "'return'";
    case TokenKind::kBreak: return "'break'";
    case TokenKind::kContinue: return "'continue'";
    case TokenKind::kTrue: return "'true'";
    case TokenKind::kFalse: return "'false'";
    case TokenKind::kNull: return "'null'";
    case TokenKind::kUndefined: return "'undefined'";
    case TokenKind::kTypeof: return "'typeof'";
    case TokenKind::kThis: return "'this'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kComma: return "','";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kColon: return "':'";
    case TokenKind::kQuestion: return "'?'";
    case TokenKind::kDot: return "'.'";
    case TokenKind::kAssign: return "'='";
    case TokenKind::kPlusAssign: return "'+='";
    case TokenKind::kMinusAssign: return "'-='";
    case TokenKind::kStarAssign: return "'*='";
    case TokenKind::kSlashAssign: return "'/='";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kPercent: return "'%'";
    case TokenKind::kPlusPlus: return "'++'";
    case TokenKind::kMinusMinus: return "'--'";
    case TokenKind::kEq: return "'=='";
    case TokenKind::kNeq: return "'!='";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGe: return "'>='";
    case TokenKind::kAndAnd: return "'&&'";
    case TokenKind::kOrOr: return "'||'";
    case TokenKind::kNot: return "'!'";
  }
  return "?";
}

std::size_t Lexer::line_of(std::string_view source, std::size_t offset) {
  std::size_t line = 1;
  for (std::size_t i = 0; i < offset && i < source.size(); ++i) {
    if (source[i] == '\n') ++line;
  }
  return line;
}

void Lexer::fail(const std::string& message) const {
  throw ParseError(message, line_of(src_, pos_));
}

void Lexer::skip_trivia() {
  while (!eof()) {
    char c = peek();
    if (is_space(c)) {
      ++pos_;
    } else if (c == '/' && peek(1) == '/') {
      while (!eof() && peek() != '\n') ++pos_;
    } else if (c == '/' && peek(1) == '*') {
      pos_ += 2;
      while (!eof() && !(peek() == '*' && peek(1) == '/')) ++pos_;
      if (eof()) fail("unterminated block comment");
      pos_ += 2;
    } else {
      break;
    }
  }
}

/// Scans the number literal starting at pos_ (a digit) and parses it;
/// false when from_chars rejects the slice (e.g. out of range).
bool Lexer::read_number(double& value) {
  const std::size_t begin = pos_;
  while (is_digit(peek())) ++pos_;
  if (peek() == '.' && is_digit(peek(1))) {
    ++pos_;
    while (is_digit(peek())) ++pos_;
  }
  if (peek() == 'e' || peek() == 'E') {
    std::size_t save = pos_;
    ++pos_;
    if (peek() == '+' || peek() == '-') ++pos_;
    if (is_digit(peek())) {
      while (is_digit(peek())) ++pos_;
    } else {
      pos_ = save;  // 'e' belongs to a following identifier
    }
  }
  const char* last = src_.data() + pos_;
  auto [ptr, ec] = std::from_chars(src_.data() + begin, last, value);
  return ec == std::errc() && ptr == last;
}

Token Lexer::lex_number() {
  Token t;
  t.kind = TokenKind::kNumber;
  t.begin = pos_;
  if (!read_number(t.number)) fail("malformed number literal");
  t.end = pos_;
  return t;
}

bool Lexer::scan_number_list(std::vector<double>& out) {
  const std::size_t start = pos_;
  out.clear();
  while (true) {
    skip_trivia();
    const bool negative = peek() == '-';
    if (negative) {
      ++pos_;
      skip_trivia();
    }
    double value;
    if (!is_digit(peek()) || !read_number(value)) break;
    out.push_back(negative ? -value : value);
    skip_trivia();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    if (peek() != ',') break;
    ++pos_;
  }
  pos_ = start;
  out.clear();
  return false;
}

Token Lexer::lex_string(char quote) {
  Token t;
  t.kind = TokenKind::kString;
  t.begin = pos_;
  ++pos_;  // opening quote
  const std::size_t body = pos_;
  bool escaped = false;  // once set, the text is built in decoded_
  while (true) {
    if (eof()) fail("unterminated string literal");
    char c = src_[pos_];
    if (c == quote) break;
    if (c == '\n') fail("newline in string literal");
    if (c == '\\') {
      if (!escaped) decoded_.assign(src_.substr(body, pos_ - body));
      escaped = true;
      ++pos_;
      if (eof()) fail("unterminated escape");
      char e = src_[pos_++];
      switch (e) {
        case 'n': decoded_.push_back('\n'); break;
        case 't': decoded_.push_back('\t'); break;
        case 'r': decoded_.push_back('\r'); break;
        case '0': decoded_.push_back('\0'); break;
        case '\\': decoded_.push_back('\\'); break;
        case '\'': decoded_.push_back('\''); break;
        case '"': decoded_.push_back('"'); break;
        case 'x': {
          if (pos_ + 2 > src_.size()) fail("bad \\x escape");
          int v = 0;
          for (int i = 0; i < 2; ++i) {
            char h = src_[pos_++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= h - '0';
            else if (h >= 'a' && h <= 'f') v |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') v |= h - 'A' + 10;
            else fail("bad hex digit in \\x escape");
          }
          decoded_.push_back(static_cast<char>(v));
          break;
        }
        default:
          fail(std::string("unknown escape \\") + e);
      }
    } else {
      if (escaped) decoded_.push_back(c);
      ++pos_;
    }
  }
  t.text = escaped ? std::string_view(decoded_)
                   : src_.substr(body, pos_ - body);
  ++pos_;  // closing quote
  t.end = pos_;
  return t;
}

Token Lexer::lex_identifier() {
  Token t;
  t.begin = pos_;
  while (is_ident_part(peek())) ++pos_;
  t.end = pos_;
  t.text = src_.substr(t.begin, t.end - t.begin);
  t.kind = keyword_kind(t.text);
  return t;
}

Token Lexer::next() {
  skip_trivia();
  Token t;
  t.begin = pos_;
  if (eof()) {
    t.kind = TokenKind::kEof;
    t.end = pos_;
    return t;
  }
  char c = peek();
  if (is_digit(c)) return lex_number();
  if (c == '"' || c == '\'') return lex_string(c);
  if (is_ident_start(c)) return lex_identifier();

  auto two = [&](TokenKind kind) {
    t.kind = kind;
    pos_ += 2;
    t.end = pos_;
    return t;
  };
  auto one = [&](TokenKind kind) {
    t.kind = kind;
    pos_ += 1;
    t.end = pos_;
    return t;
  };

  char d = peek(1);
  switch (c) {
    case '(': return one(TokenKind::kLParen);
    case ')': return one(TokenKind::kRParen);
    case '{': return one(TokenKind::kLBrace);
    case '}': return one(TokenKind::kRBrace);
    case '[': return one(TokenKind::kLBracket);
    case ']': return one(TokenKind::kRBracket);
    case ',': return one(TokenKind::kComma);
    case ';': return one(TokenKind::kSemicolon);
    case ':': return one(TokenKind::kColon);
    case '?': return one(TokenKind::kQuestion);
    case '.': return one(TokenKind::kDot);
    case '+':
      if (d == '+') return two(TokenKind::kPlusPlus);
      if (d == '=') return two(TokenKind::kPlusAssign);
      return one(TokenKind::kPlus);
    case '-':
      if (d == '-') return two(TokenKind::kMinusMinus);
      if (d == '=') return two(TokenKind::kMinusAssign);
      return one(TokenKind::kMinus);
    case '*':
      if (d == '=') return two(TokenKind::kStarAssign);
      return one(TokenKind::kStar);
    case '/':
      if (d == '=') return two(TokenKind::kSlashAssign);
      return one(TokenKind::kSlash);
    case '%': return one(TokenKind::kPercent);
    case '=':
      if (d == '=') return two(TokenKind::kEq);
      return one(TokenKind::kAssign);
    case '!':
      if (d == '=') return two(TokenKind::kNeq);
      return one(TokenKind::kNot);
    case '<':
      if (d == '=') return two(TokenKind::kLe);
      return one(TokenKind::kLt);
    case '>':
      if (d == '=') return two(TokenKind::kGe);
      return one(TokenKind::kGt);
    case '&':
      if (d == '&') return two(TokenKind::kAndAnd);
      fail("single '&' is not supported");
    case '|':
      if (d == '|') return two(TokenKind::kOrOr);
      fail("single '|' is not supported");
    default:
      fail(std::string("unexpected character '") + c + "'");
  }
}

}  // namespace offload::jsvm
