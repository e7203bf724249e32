// Hand-written pull lexer for MicroJS. Supports // and /* */ comments,
// decimal and exponent number literals, and single- or double-quoted
// strings with the common escape sequences.
//
// The parser pulls one token at a time, so source is lexed only as far as
// it has been parsed. When an input holds both a lexical and a syntax
// error, the one earlier in the source is reported; either way it is a
// ParseError.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/jsvm/token.h"

namespace offload::jsvm {

/// Thrown on malformed source; carries a 1-based line number.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, std::size_t line)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

class Lexer {
 public:
  /// `source` must outlive the lexer and every token it returns.
  explicit Lexer(std::string_view source) : src_(source) {}

  /// Scan the next token (kEof at the end, and again on every later call).
  /// The token's text views the source, or for a string literal with
  /// escapes a buffer this lexer owns; it is valid until the next call.
  Token next();

  /// Called right after a '[' token: reads `n, -n, ... ]`, number literals
  /// each with an optional leading '-', with trivia anywhere. On success
  /// the values are in `out` (a '-' negates like unary minus) and the lexer
  /// is just past the ']'. On any other token it rewinds to just after the
  /// '[' and returns false, so the ordinary token path reads the same
  /// values or reports the same error.
  bool scan_number_list(std::vector<double>& out);

  /// Byte offset of the next unread character.
  std::size_t offset() const { return pos_; }

  /// 1-based line of a byte offset (for diagnostics).
  static std::size_t line_of(std::string_view source, std::size_t offset);

 private:
  void skip_trivia();
  bool read_number(double& value);
  Token lex_number();
  Token lex_string(char quote);
  Token lex_identifier();
  [[noreturn]] void fail(const std::string& message) const;

  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  bool eof() const { return pos_ >= src_.size(); }

  std::string_view src_;
  std::size_t pos_ = 0;
  std::string decoded_;  ///< text of the last string literal with escapes
};

}  // namespace offload::jsvm
