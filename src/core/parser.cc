#include "core/parser.h"

#include <cctype>
#include <cstdlib>
#include <vector>

namespace gelc {

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kNumber, kSymbol, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;   // identifier text or symbol
  double number = 0;  // for kNumber
  size_t pos = 0;     // byte offset, for diagnostics
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    size_t i = 0;
    while (i < text_.size()) {
      char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c))) {
        size_t start = i;
        while (i < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[i])) ||
                text_[i] == '_')) {
          ++i;
        }
        // '_' immediately before '{' is the aggregate binder separator,
        // not part of the identifier ("agg[sum]_{x1}").
        std::string ident = text_.substr(start, i - start);
        if (!ident.empty() && ident.back() == '_' && i < text_.size() &&
            text_[i] == '{') {
          ident.pop_back();
          --i;
        }
        out.push_back({Token::Kind::kIdent, ident, 0, start});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
          c == '+' || c == '.') {
        char* end = nullptr;
        double value = std::strtod(text_.c_str() + i, &end);
        size_t consumed = end - (text_.c_str() + i);
        if (consumed == 0) {
          return Status::IOError("stray character '" + std::string(1, c) +
                                 "' at position " + std::to_string(i));
        }
        out.push_back({Token::Kind::kNumber,
                       text_.substr(i, consumed), value, i});
        i += consumed;
        continue;
      }
      if (c == '!' && i + 1 < text_.size() && text_[i + 1] == '=') {
        out.push_back({Token::Kind::kSymbol, "!=", 0, i});
        i += 2;
        continue;
      }
      static const std::string kSymbols = "()[]{},|=_";
      if (kSymbols.find(c) != std::string::npos) {
        out.push_back({Token::Kind::kSymbol, std::string(1, c), 0, i});
        ++i;
        continue;
      }
      return Status::IOError("unexpected character '" + std::string(1, c) +
                             "' at position " + std::to_string(i));
    }
    out.push_back({Token::Kind::kEnd, "", 0, text_.size()});
    return out;
  }

 private:
  const std::string& text_;
};

// ---------------------------------------------------------------------------
// Parser (predictive, with an explicit stack for nesting)
// ---------------------------------------------------------------------------

// Cap on open applications and aggregates: far beyond any written query,
// and shallow enough for the recursive consumers of the parsed tree
// (Evaluator::Eval, Expr::ToString, StructuralHash, the destructor).
// Eval is the deepest of them and overflowed an 8 MiB stack past about
// 8,300 levels in an optimised build and 1,070 under ASAN/UBSAN.
constexpr size_t kMaxNestingDepth = 512;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ExprPtr> Parse() {
    GELC_ASSIGN_OR_RETURN(ExprPtr e, ParseExprRule());
    if (!AtEnd()) {
      return Err("trailing input after expression");
    }
    return e;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  bool AtEnd() const { return Peek().kind == Token::Kind::kEnd; }
  const Token& Advance() { return tokens_[pos_++]; }

  bool MatchSymbol(const std::string& s) {
    if (Peek().kind == Token::Kind::kSymbol && Peek().text == s) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Err(const std::string& msg) const {
    return Status::IOError(msg + " at position " +
                           std::to_string(Peek().pos) + " (near '" +
                           Peek().text + "')");
  }

  Status ExpectSymbol(const std::string& s) {
    if (!MatchSymbol(s)) return Err("expected '" + s + "'");
    return Status::OK();
  }

  // var := 'x' INT — lexed as a single identifier like "x12".
  Result<Var> ParseVar() {
    if (Peek().kind != Token::Kind::kIdent || Peek().text.size() < 2 ||
        Peek().text[0] != 'x') {
      return Err("expected a variable like x0");
    }
    const std::string& t = Peek().text;
    for (size_t i = 1; i < t.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(t[i]))) {
        return Err("expected a variable like x0");
      }
    }
    unsigned long v = std::strtoul(t.c_str() + 1, nullptr, 10);
    if (v >= kMaxVariables) return Err("variable index out of range");
    Advance();
    return static_cast<Var>(v);
  }

  Result<double> ParseNumber() {
    if (Peek().kind != Token::Kind::kNumber) return Err("expected a number");
    return Advance().number;
  }

  // A function application or aggregate whose '(' has been read and whose
  // arguments are still being parsed.
  struct OpenTerm {
    bool aggregate = false;
    std::string name;            // function or aggregator name
    std::vector<double> params;  // bracketed function parameters
    VarSet bound = 0;            // aggregate's bound variables
    std::vector<ExprPtr> args;   // apply args; aggregate value, then guard
  };

  // expr, with the open applications and aggregates kept on an explicit
  // stack rather than the call stack, so hostile nesting costs heap and
  // hits the depth cap instead of overflowing the stack.
  Result<ExprPtr> ParseExprRule() {
    std::vector<OpenTerm> open;
    for (;;) {
      const Token& t = Peek();
      if (t.kind == Token::Kind::kIdent && t.text != "E" && !IsLabel(t.text)) {
        if (open.size() == kMaxNestingDepth) {
          return Status::InvalidArgument(
              "expression nested deeper than " +
              std::to_string(kMaxNestingDepth) + " levels at position " +
              std::to_string(t.pos));
        }
        open.emplace_back();
        GELC_RETURN_NOT_OK(t.text == "agg" ? OpenAggregate(&open.back())
                                           : OpenApply(&open.back()));
        continue;
      }
      GELC_ASSIGN_OR_RETURN(ExprPtr e, ParseAtom());
      // Hand the finished subexpression to the innermost open term and
      // close every term it completes.
      for (;;) {
        if (open.empty()) return e;
        OpenTerm& term = open.back();
        term.args.push_back(std::move(e));
        bool more = term.aggregate
                        ? term.args.size() == 1 && MatchSymbol("|")
                        : MatchSymbol(",");
        if (more) break;
        GELC_RETURN_NOT_OK(ExpectSymbol(")"));
        GELC_ASSIGN_OR_RETURN(
            e, term.aggregate ? CloseAggregate(&term) : CloseApply(&term));
        open.pop_back();
      }
    }
  }

  static bool IsLabel(const std::string& ident) {
    return ident.rfind("lab", 0) == 0 && ident.size() > 3;
  }

  // The leaf forms: const, equality indicator, edge, label.
  Result<ExprPtr> ParseAtom() {
    const Token& t = Peek();
    if (t.kind == Token::Kind::kSymbol && t.text == "[") {
      return ParseConst();
    }
    if (t.kind == Token::Kind::kNumber && t.text == "1" &&
        tokens_[pos_ + 1].kind == Token::Kind::kSymbol &&
        tokens_[pos_ + 1].text == "[") {
      return ParseCompare();
    }
    if (t.kind != Token::Kind::kIdent) {
      return Err("expected an expression");
    }
    if (t.text == "E") return ParseEdge();
    return ParseLabel();
  }

  Result<ExprPtr> ParseConst() {
    GELC_RETURN_NOT_OK(ExpectSymbol("["));
    std::vector<double> values;
    do {
      GELC_ASSIGN_OR_RETURN(double v, ParseNumber());
      values.push_back(v);
    } while (MatchSymbol(","));
    GELC_RETURN_NOT_OK(ExpectSymbol("]"));
    return Expr::Constant(std::move(values));
  }

  Result<ExprPtr> ParseCompare() {
    Advance();  // the '1'
    GELC_RETURN_NOT_OK(ExpectSymbol("["));
    GELC_ASSIGN_OR_RETURN(Var a, ParseVar());
    CmpOp op;
    if (MatchSymbol("=")) {
      op = CmpOp::kEq;
    } else if (MatchSymbol("!=")) {
      op = CmpOp::kNeq;
    } else {
      return Err("expected '=' or '!='");
    }
    GELC_ASSIGN_OR_RETURN(Var b, ParseVar());
    GELC_RETURN_NOT_OK(ExpectSymbol("]"));
    return Expr::Compare(a, b, op);
  }

  Result<ExprPtr> ParseEdge() {
    Advance();  // 'E'
    GELC_RETURN_NOT_OK(ExpectSymbol("("));
    GELC_ASSIGN_OR_RETURN(Var a, ParseVar());
    GELC_RETURN_NOT_OK(ExpectSymbol(","));
    GELC_ASSIGN_OR_RETURN(Var b, ParseVar());
    GELC_RETURN_NOT_OK(ExpectSymbol(")"));
    return Expr::Edge(a, b);
  }

  Result<ExprPtr> ParseLabel() {
    const std::string& t = Peek().text;  // "lab<digits>"
    for (size_t i = 3; i < t.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(t[i]))) {
        return Err("malformed label atom");
      }
    }
    size_t index = std::strtoul(t.c_str() + 3, nullptr, 10);
    Advance();
    GELC_RETURN_NOT_OK(ExpectSymbol("("));
    GELC_ASSIGN_OR_RETURN(Var v, ParseVar());
    GELC_RETURN_NOT_OK(ExpectSymbol(")"));
    return Expr::Label(index, v);
  }

  // 'agg' '[' AGG ']' '_' '{' vars '}' '(' — the head of an aggregate.
  Status OpenAggregate(OpenTerm* term) {
    Advance();  // 'agg'
    term->aggregate = true;
    GELC_RETURN_NOT_OK(ExpectSymbol("["));
    if (Peek().kind != Token::Kind::kIdent) return Err("expected aggregator");
    term->name = Advance().text;
    GELC_RETURN_NOT_OK(ExpectSymbol("]"));
    GELC_RETURN_NOT_OK(ExpectSymbol("_"));
    GELC_RETURN_NOT_OK(ExpectSymbol("{"));
    do {
      GELC_ASSIGN_OR_RETURN(Var v, ParseVar());
      term->bound |= VarBit(v);
    } while (MatchSymbol(","));
    GELC_RETURN_NOT_OK(ExpectSymbol("}"));
    return ExpectSymbol("(");
  }

  Result<ExprPtr> CloseAggregate(OpenTerm* term) {
    ExprPtr& value = term->args[0];
    size_t d = value->dim();
    ThetaPtr agg;
    if (term->name == "sum") {
      agg = theta::Sum(d);
    } else if (term->name == "mean") {
      agg = theta::Mean(d);
    } else if (term->name == "max") {
      agg = theta::Max(d);
    } else if (term->name == "count") {
      agg = theta::Count(d);
    } else {
      return Status::IOError("unknown aggregator '" + term->name + "'");
    }
    ExprPtr guard = term->args.size() > 1 ? term->args[1] : nullptr;
    return Expr::Aggregate(std::move(agg), term->bound, std::move(value),
                           std::move(guard));
  }

  // FN ('[' NUM (',' NUM)* ']')? '(' — the head of an application.
  Status OpenApply(OpenTerm* term) {
    term->name = Advance().text;
    // Bracketed parameters: scale[c], project[b,l].
    if (MatchSymbol("[")) {
      do {
        GELC_ASSIGN_OR_RETURN(double v, ParseNumber());
        term->params.push_back(v);
      } while (MatchSymbol(","));
      GELC_RETURN_NOT_OK(ExpectSymbol("]"));
    }
    return ExpectSymbol("(");
  }

  Result<ExprPtr> CloseApply(OpenTerm* term) {
    const std::string& name = term->name;
    const std::vector<double>& params = term->params;
    std::vector<ExprPtr>& args = term->args;
    auto arity_error = [&](size_t want) {
      return Status::IOError("'" + name + "' expects " +
                             std::to_string(want) + " argument(s), got " +
                             std::to_string(args.size()));
    };

    Result<Activation> act = ParseActivation(name);
    if (act.ok()) {
      if (args.size() != 1) return arity_error(1);
      // Evaluate the dimension before std::move(args) can be sequenced.
      OmegaPtr fn = omega::ActivationFn(*act, args[0]->dim());
      return Expr::Apply(std::move(fn), std::move(args));
    }
    if (name == "add" || name == "mul") {
      if (args.size() != 2) return arity_error(2);
      if (args[0]->dim() != args[1]->dim()) {
        return Status::IOError("'" + name + "' argument dimension mismatch");
      }
      OmegaPtr fn = name == "add" ? omega::Add(args[0]->dim())
                                  : omega::Multiply(args[0]->dim());
      return Expr::Apply(std::move(fn), std::move(args));
    }
    if (name == "concat") {
      std::vector<size_t> dims;
      for (const ExprPtr& a : args) dims.push_back(a->dim());
      return Expr::Apply(omega::Concat(dims), std::move(args));
    }
    if (name == "scale") {
      if (params.size() != 1) {
        return Status::IOError("scale needs one parameter: scale[c](...)");
      }
      if (args.size() != 1) return arity_error(1);
      OmegaPtr fn = omega::Scale(params[0], args[0]->dim());
      return Expr::Apply(std::move(fn), std::move(args));
    }
    if (name == "project") {
      if (params.size() != 2) {
        return Status::IOError(
            "project needs two parameters: project[begin,len](...)");
      }
      if (args.size() != 1) return arity_error(1);
      GELC_ASSIGN_OR_RETURN(
          OmegaPtr fn,
          omega::Project(args[0]->dim(), static_cast<size_t>(params[0]),
                         static_cast<size_t>(params[1])));
      return Expr::Apply(std::move(fn), std::move(args));
    }
    return Status::IOError("unknown function '" + name +
                           "' (linear/mlp have no text form)");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<ExprPtr> ParseExpr(const std::string& text) {
  Lexer lexer(text);
  GELC_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace gelc
