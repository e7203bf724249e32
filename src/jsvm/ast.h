// AST for MicroJS. Plain structs with a kind tag; the interpreter walks by
// switching on the kind (no virtual dispatch on the hot path). Function
// literals remember their [begin, end) byte span in the original source —
// the snapshot writer serializes functions by slicing that text, exactly
// like the paper's snapshot carries "the functions of the app".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace offload::jsvm {

enum class ExprKind : std::uint8_t {
  kNumber,
  kString,
  kBool,
  kNull,
  kUndefined,
  kThis,
  kIdentifier,
  kArray,
  kObject,
  kFunction,
  kUnary,
  kUpdate,
  kBinary,
  kLogical,
  kConditional,
  kAssign,
  kCall,
  kMember,
  kIndex,
};

enum class StmtKind : std::uint8_t {
  kExpr,
  kVarDecl,
  kFunctionDecl,
  kBlock,
  kIf,
  kWhile,
  kFor,
  kReturn,
  kBreak,
  kContinue,
};

enum class BinaryOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod, kEq, kNeq, kLt, kGt, kLe, kGe,
};
enum class LogicalOp : std::uint8_t { kAnd, kOr };
enum class UnaryOp : std::uint8_t { kNeg, kNot, kTypeof };
enum class AssignOp : std::uint8_t { kAssign, kAdd, kSub, kMul, kDiv };

struct Expr {
  ExprKind kind;
  std::size_t begin = 0;  ///< source offset for diagnostics
  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;
};
using ExprPtr = std::unique_ptr<Expr>;

struct Stmt {
  StmtKind kind;
  std::size_t begin = 0;
  explicit Stmt(StmtKind k) : kind(k) {}
  virtual ~Stmt() = default;
};
using StmtPtr = std::unique_ptr<Stmt>;

// ------------------------------------------------------------- expressions

struct NumberExpr final : Expr {
  NumberExpr() : Expr(ExprKind::kNumber) {}
  double value = 0;
};

struct StringExpr final : Expr {
  StringExpr() : Expr(ExprKind::kString) {}
  std::string value;
};

struct BoolExpr final : Expr {
  BoolExpr() : Expr(ExprKind::kBool) {}
  bool value = false;
};

struct NullExpr final : Expr {
  NullExpr() : Expr(ExprKind::kNull) {}
};

struct UndefinedExpr final : Expr {
  UndefinedExpr() : Expr(ExprKind::kUndefined) {}
};

struct ThisExpr final : Expr {
  ThisExpr() : Expr(ExprKind::kThis) {}
};

struct IdentifierExpr final : Expr {
  IdentifierExpr() : Expr(ExprKind::kIdentifier) {}
  std::string name;
};

struct ArrayExpr final : Expr {
  ArrayExpr() : Expr(ExprKind::kArray) {}
  std::vector<ExprPtr> elements;
  /// A literal of only (optionally negated) numbers is stored packed here
  /// instead, with `elements` empty (see Lexer::scan_number_list).
  std::vector<double> numbers;
};

struct ObjectExpr final : Expr {
  ObjectExpr() : Expr(ExprKind::kObject) {}
  std::vector<std::pair<std::string, ExprPtr>> properties;
};

struct BlockStmt;

struct FunctionExpr final : Expr {
  FunctionExpr() : Expr(ExprKind::kFunction) {}
  std::string name;  ///< empty for anonymous expressions
  std::vector<std::string> params;
  std::unique_ptr<BlockStmt> body;
  std::size_t src_begin = 0;  ///< span of "function (...) {...}" in source
  std::size_t src_end = 0;
};

struct UnaryExpr final : Expr {
  UnaryExpr() : Expr(ExprKind::kUnary) {}
  UnaryOp op = UnaryOp::kNeg;
  ExprPtr operand;
};

struct UpdateExpr final : Expr {
  UpdateExpr() : Expr(ExprKind::kUpdate) {}
  bool increment = true;  ///< ++ vs --
  bool prefix = false;
  ExprPtr target;  ///< identifier, member, or index
};

struct BinaryExpr final : Expr {
  BinaryExpr() : Expr(ExprKind::kBinary) {}
  BinaryOp op = BinaryOp::kAdd;
  ExprPtr lhs;
  ExprPtr rhs;
};

struct LogicalExpr final : Expr {
  LogicalExpr() : Expr(ExprKind::kLogical) {}
  LogicalOp op = LogicalOp::kAnd;
  ExprPtr lhs;
  ExprPtr rhs;
};

struct ConditionalExpr final : Expr {
  ConditionalExpr() : Expr(ExprKind::kConditional) {}
  ExprPtr condition;
  ExprPtr consequent;
  ExprPtr alternate;
};

struct AssignExpr final : Expr {
  AssignExpr() : Expr(ExprKind::kAssign) {}
  AssignOp op = AssignOp::kAssign;
  ExprPtr target;  ///< identifier, member, or index
  ExprPtr value;
};

struct CallExpr final : Expr {
  CallExpr() : Expr(ExprKind::kCall) {}
  ExprPtr callee;
  std::vector<ExprPtr> args;
};

struct MemberExpr final : Expr {
  MemberExpr() : Expr(ExprKind::kMember) {}
  ExprPtr object;
  std::string property;
};

struct IndexExpr final : Expr {
  IndexExpr() : Expr(ExprKind::kIndex) {}
  ExprPtr object;
  ExprPtr index;
};

// -------------------------------------------------------------- statements

struct ExprStmt final : Stmt {
  ExprStmt() : Stmt(StmtKind::kExpr) {}
  ExprPtr expr;
};

struct VarDeclStmt final : Stmt {
  VarDeclStmt() : Stmt(StmtKind::kVarDecl) {}
  std::string name;
  ExprPtr init;  ///< may be null
};

struct FunctionDeclStmt final : Stmt {
  FunctionDeclStmt() : Stmt(StmtKind::kFunctionDecl) {}
  std::unique_ptr<FunctionExpr> function;  ///< has non-empty name
};

struct BlockStmt final : Stmt {
  BlockStmt() : Stmt(StmtKind::kBlock) {}
  std::vector<StmtPtr> statements;
};

struct IfStmt final : Stmt {
  IfStmt() : Stmt(StmtKind::kIf) {}
  ExprPtr condition;
  StmtPtr consequent;
  StmtPtr alternate;  ///< may be null
};

struct WhileStmt final : Stmt {
  WhileStmt() : Stmt(StmtKind::kWhile) {}
  ExprPtr condition;
  StmtPtr body;
};

struct ForStmt final : Stmt {
  ForStmt() : Stmt(StmtKind::kFor) {}
  StmtPtr init;     ///< var decl or expression stmt; may be null
  ExprPtr condition;  ///< may be null (infinite)
  ExprPtr update;     ///< may be null
  StmtPtr body;
};

struct ReturnStmt final : Stmt {
  ReturnStmt() : Stmt(StmtKind::kReturn) {}
  ExprPtr value;  ///< may be null
};

struct BreakStmt final : Stmt {
  BreakStmt() : Stmt(StmtKind::kBreak) {}
};

struct ContinueStmt final : Stmt {
  ContinueStmt() : Stmt(StmtKind::kContinue) {}
};

/// A parsed compilation unit. Owns the source so FunctionExpr spans remain
/// valid for the lifetime of any closure created from it.
struct Program {
  std::string source;
  std::string origin;  ///< e.g. "app", "snapshot"
  std::vector<StmtPtr> statements;
};
using ProgramPtr = std::shared_ptr<const Program>;

}  // namespace offload::jsvm
