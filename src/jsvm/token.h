// Token definitions for MicroJS, the JavaScript subset our web-app runtime
// executes (see src/jsvm/README note in interpreter.h for the language
// surface). Tokens carry source offsets so functions can be snapshotted by
// slicing their original source text.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace offload::jsvm {

enum class TokenKind : std::uint8_t {
  kEof,
  kIdentifier,
  kNumber,
  kString,
  // Keywords.
  kVar,
  kFunction,
  kIf,
  kElse,
  kWhile,
  kFor,
  kReturn,
  kBreak,
  kContinue,
  kTrue,
  kFalse,
  kNull,
  kUndefined,
  kTypeof,
  kThis,
  // Punctuation / operators.
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kLBracket,
  kRBracket,
  kComma,
  kSemicolon,
  kColon,
  kQuestion,
  kDot,
  kAssign,
  kPlusAssign,
  kMinusAssign,
  kStarAssign,
  kSlashAssign,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kPercent,
  kPlusPlus,
  kMinusMinus,
  kEq,
  kNeq,
  kLt,
  kGt,
  kLe,
  kGe,
  kAndAnd,
  kOrOr,
  kNot,
};

struct Token {
  TokenKind kind = TokenKind::kEof;
  std::size_t begin = 0;  ///< byte offset of first char
  std::size_t end = 0;    ///< one past last char
  double number = 0.0;    ///< for kNumber
  /// Identifier name or decoded string literal. Views the source or the
  /// lexer's escape buffer, so it is valid only until the next token.
  std::string_view text;
};

const char* token_kind_name(TokenKind kind);

}  // namespace offload::jsvm
