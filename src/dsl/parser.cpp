#include "dsl/parser.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <map>
#include <optional>

#include "loopir/builder.h"
#include "poly/constraints.h"

namespace vdep::dsl {

namespace {

using intlin::i64;
using intlin::Vec;
using loopir::AffineExpr;

// --------------------------------------------------------------- lexer

enum class Tok {
  kIdent,
  kNumber,
  kLBracket,
  kRBracket,
  kLParen,
  kRParen,
  kComma,
  kColon,
  kAssign,
  kPlus,
  kMinus,
  kStar,
  kEnd,
};

struct Token {
  Tok kind;
  std::string text;
  i64 value = 0;
  int line = 1;
  int col = 1;  ///< 1-based column of the token's first character
};

std::vector<Token> lex(const std::string& src) {
  std::vector<Token> out;
  int line = 1;
  std::size_t k = 0;
  std::size_t line_start = 0;  // index of the first character of `line`
  auto col_of = [&](std::size_t pos) {
    return static_cast<int>(pos - line_start) + 1;
  };
  auto push = [&](Tok t, std::string s) {
    out.push_back({t, std::move(s), 0, line, col_of(k)});
  };
  while (k < src.size()) {
    char c = src[k];
    if (c == '\n') {
      ++line;
      ++k;
      line_start = k;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++k;
      continue;
    }
    if (c == '#') {
      while (k < src.size() && src[k] != '\n') ++k;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t s = k;
      while (k < src.size() && (std::isalnum(static_cast<unsigned char>(src[k])) ||
                                src[k] == '_'))
        ++k;
      out.push_back({Tok::kIdent, src.substr(s, k - s), 0, line, col_of(s)});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t s = k;
      while (k < src.size() && std::isdigit(static_cast<unsigned char>(src[k]))) ++k;
      Token t{Tok::kNumber, src.substr(s, k - s), 0, line, col_of(s)};
      t.value = std::stoll(t.text);
      out.push_back(std::move(t));
      continue;
    }
    switch (c) {
      case '[': push(Tok::kLBracket, "["); break;
      case ']': push(Tok::kRBracket, "]"); break;
      case '(': push(Tok::kLParen, "("); break;
      case ')': push(Tok::kRParen, ")"); break;
      case ',': push(Tok::kComma, ","); break;
      case ':': push(Tok::kColon, ":"); break;
      case '=': push(Tok::kAssign, "="); break;
      case '+': push(Tok::kPlus, "+"); break;
      case '-': push(Tok::kMinus, "-"); break;
      case '*': push(Tok::kStar, "*"); break;
      default:
        throw ParseError(std::string("unexpected character '") + c + "'", line,
                         col_of(k));
    }
    ++k;
  }
  out.push_back({Tok::kEnd, "<eof>", 0, line,
                 col_of(std::min(k, src.size()))});
  return out;
}

// ------------------------------------------------------------ parse AST

struct PExpr {
  enum class Kind { kNum, kVar, kAdd, kSub, kMul, kNeg, kRead };
  Kind kind = Kind::kNum;
  i64 num = 0;
  std::string name;                 // kVar / kRead
  std::vector<PExpr> kids;          // binary / unary operands
  std::vector<PExpr> subscripts;    // kRead
  int line = 1;
  int col = 1;
};

struct PLoop {
  std::string index;
  PExpr lo, hi;
  int line = 1;
  int col = 1;
};

struct PAssign {
  std::string array;
  std::vector<PExpr> subscripts;
  PExpr rhs;
  int line = 1;
  int col = 1;
};

struct PProgram {
  std::map<std::string, std::vector<std::pair<i64, i64>>> declared_arrays;
  std::vector<PLoop> loops;      // outermost first
  std::vector<PAssign> body;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  PProgram parse() {
    PProgram prog;
    while (peek().kind == Tok::kIdent && peek().text == "array")
      parse_array_decl(prog);
    if (!(peek().kind == Tok::kIdent && peek().text == "do"))
      throw ParseError("expected 'do'", peek().line, peek().col);
    parse_loop(prog);
    expect_end();
    return prog;
  }

 private:
  const Token& peek(int ahead = 0) const {
    std::size_t k = pos_ + static_cast<std::size_t>(ahead);
    return k < toks_.size() ? toks_[k] : toks_.back();
  }
  Token next() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }
  Token expect(Tok kind, const std::string& what) {
    if (peek().kind != kind)
      throw ParseError("expected " + what + ", found '" + peek().text + "'",
                       peek().line, peek().col);
    return next();
  }
  bool accept_ident(const std::string& word) {
    if (peek().kind == Tok::kIdent && peek().text == word) {
      next();
      return true;
    }
    return false;
  }
  void expect_end() {
    if (peek().kind != Tok::kEnd)
      throw ParseError("trailing input after the loop nest: '" + peek().text + "'",
                       peek().line, peek().col);
  }

  void parse_array_decl(PProgram& prog) {
    expect(Tok::kIdent, "'array'");  // consumes "array"
    Token name = expect(Tok::kIdent, "array name");
    expect(Tok::kLBracket, "'['");
    std::vector<std::pair<i64, i64>> dims;
    for (;;) {
      i64 lo = parse_signed_int();
      expect(Tok::kColon, "':'");
      i64 hi = parse_signed_int();
      if (lo > hi) throw ParseError("empty array dimension", name.line, name.col);
      dims.emplace_back(lo, hi);
      if (peek().kind == Tok::kComma) {
        next();
        continue;
      }
      break;
    }
    expect(Tok::kRBracket, "']'");
    if (!prog.declared_arrays.emplace(name.text, std::move(dims)).second)
      throw ParseError("array " + name.text + " declared twice", name.line,
                       name.col);
  }

  i64 parse_signed_int() {
    bool negative = false;
    while (peek().kind == Tok::kMinus) {
      next();
      negative = !negative;
    }
    Token t = expect(Tok::kNumber, "integer");
    return negative ? -t.value : t.value;
  }

  void parse_loop(PProgram& prog) {
    Token kw = expect(Tok::kIdent, "'do'");  // consumes "do"
    PLoop loop;
    loop.line = kw.line;
    loop.col = kw.col;
    loop.index = expect(Tok::kIdent, "loop index").text;
    for (const PLoop& l : prog.loops)
      if (l.index == loop.index)
        throw ParseError("duplicate loop index " + loop.index, kw.line, kw.col);
    expect(Tok::kAssign, "'='");
    loop.lo = parse_expr();
    expect(Tok::kComma, "','");
    loop.hi = parse_expr();
    prog.loops.push_back(std::move(loop));

    if (peek().kind == Tok::kIdent && peek().text == "do") {
      parse_loop(prog);
    } else {
      // Innermost: one or more assignments.
      if (!(peek().kind == Tok::kIdent) || peek().text == "enddo")
        throw ParseError("loop body must contain at least one assignment",
                         peek().line, peek().col);
      while (peek().kind == Tok::kIdent && peek().text != "enddo")
        prog.body.push_back(parse_assign());
    }
    if (!accept_ident("enddo"))
      throw ParseError("expected 'enddo'", peek().line, peek().col);
  }

  PAssign parse_assign() {
    PAssign a;
    Token name = expect(Tok::kIdent, "array name");
    a.array = name.text;
    a.line = name.line;
    a.col = name.col;
    expect(Tok::kLBracket, "'[' (assignments must target an array)");
    for (;;) {
      a.subscripts.push_back(parse_expr());
      if (peek().kind == Tok::kComma) {
        next();
        continue;
      }
      break;
    }
    expect(Tok::kRBracket, "']'");
    expect(Tok::kAssign, "'='");
    a.rhs = parse_expr();
    return a;
  }

  PExpr parse_expr() {
    PExpr acc = parse_term();
    while (peek().kind == Tok::kPlus || peek().kind == Tok::kMinus) {
      bool plus = next().kind == Tok::kPlus;
      PExpr rhs = parse_term();
      PExpr node;
      node.kind = plus ? PExpr::Kind::kAdd : PExpr::Kind::kSub;
      node.line = acc.line;
      node.col = acc.col;
      node.kids = {std::move(acc), std::move(rhs)};
      acc = std::move(node);
    }
    return acc;
  }

  PExpr parse_term() {
    PExpr acc = parse_factor();
    while (peek().kind == Tok::kStar) {
      next();
      PExpr rhs = parse_factor();
      PExpr node;
      node.kind = PExpr::Kind::kMul;
      node.line = acc.line;
      node.col = acc.col;
      node.kids = {std::move(acc), std::move(rhs)};
      acc = std::move(node);
    }
    return acc;
  }

  PExpr parse_factor() {
    const Token& t = peek();
    if (t.kind == Tok::kMinus) {
      next();
      PExpr node;
      node.kind = PExpr::Kind::kNeg;
      node.line = t.line;
      node.col = t.col;
      node.kids.push_back(parse_factor());
      return node;
    }
    if (t.kind == Tok::kNumber) {
      next();
      PExpr node;
      node.kind = PExpr::Kind::kNum;
      node.num = t.value;
      node.line = t.line;
      node.col = t.col;
      return node;
    }
    if (t.kind == Tok::kLParen) {
      next();
      PExpr inner = parse_expr();
      expect(Tok::kRParen, "')'");
      return inner;
    }
    if (t.kind == Tok::kIdent) {
      Token name = next();
      if (peek().kind == Tok::kLBracket) {
        next();
        PExpr node;
        node.kind = PExpr::Kind::kRead;
        node.name = name.text;
        node.line = name.line;
        node.col = name.col;
        for (;;) {
          node.subscripts.push_back(parse_expr());
          if (peek().kind == Tok::kComma) {
            next();
            continue;
          }
          break;
        }
        expect(Tok::kRBracket, "']'");
        return node;
      }
      PExpr node;
      node.kind = PExpr::Kind::kVar;
      node.name = name.text;
      node.line = name.line;
      node.col = name.col;
      return node;
    }
    throw ParseError("expected an expression, found '" + t.text + "'", t.line,
                     t.col);
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
};

// ----------------------------------------------------------- lowering

class Lowerer {
 public:
  explicit Lowerer(const PProgram& prog) : prog_(prog) {
    for (std::size_t k = 0; k < prog.loops.size(); ++k)
      index_of_[prog.loops[k].index] = static_cast<int>(k);
    depth_ = static_cast<int>(prog.loops.size());
  }

  loopir::LoopNest lower() {
    // Levels with affine bounds.
    std::vector<loopir::Level> levels;
    for (std::size_t k = 0; k < prog_.loops.size(); ++k) {
      const PLoop& l = prog_.loops[k];
      AffineExpr lo = to_affine(l.lo);
      AffineExpr hi = to_affine(l.hi);
      if (lo.last_index_used() >= static_cast<int>(k) ||
          hi.last_index_used() >= static_cast<int>(k))
        throw ParseError("bounds of " + l.index + " may only use outer indices",
                         l.line, l.col);
      levels.push_back({l.index, loopir::Bound(lo), loopir::Bound(hi), false});
    }

    // Body with reads/writes.
    std::vector<loopir::Assign> body;
    for (const PAssign& a : prog_.body) {
      loopir::Assign out;
      out.lhs.array = a.array;
      lower_subscripts(a.subscripts, &out.lhs);
      out.rhs = to_expr(a.rhs);
      body.push_back(std::move(out));
      note_array(a.array, static_cast<int>(a.subscripts.size()), a.line, a.col);
    }

    // Array declarations: explicit or inferred from subscript extremes.
    std::vector<loopir::ArrayDecl> arrays = infer_arrays(levels, body);
    return loopir::LoopNest(std::move(levels), std::move(arrays), std::move(body));
  }

 private:
  void note_array(const std::string& name, int arity, int line, int col) {
    auto it = arity_.find(name);
    if (it != arity_.end() && it->second != arity)
      throw ParseError("array " + name + " used with inconsistent arity", line,
                       col);
    arity_[name] = arity;
  }

  /// Lowers a reference's subscript list, accepting one level of
  /// indirection: a subscript that is *exactly* an index-array read
  /// (`A[B[i]]`) becomes an IndirectSubscript; everything else must be
  /// affine. The pos inside the read goes through to_affine, which rejects
  /// further reads — so exactly one level, by construction.
  void lower_subscripts(const std::vector<PExpr>& subs, loopir::ArrayRef* r) {
    bool any_indirect = false;
    for (const PExpr& s : subs)
      if (s.kind == PExpr::Kind::kRead) any_indirect = true;
    for (const PExpr& s : subs) {
      if (s.kind == PExpr::Kind::kRead) {
        if (s.subscripts.size() != 1)
          throw ParseError("index array " + s.name +
                               " must be one-dimensional",
                           s.line, s.col);
        loopir::IndirectSubscript ind{s.name, to_affine(s.subscripts[0])};
        note_array(s.name, 1, s.line, s.col);
        // Placeholder affine entry keeps the slot count aligned; consumers
        // gate on indirect[k] before touching it.
        r->subscripts.push_back(AffineExpr::constant(depth_, 0));
        r->indirect.emplace_back(std::move(ind));
      } else {
        r->subscripts.push_back(to_affine(s));
        r->indirect.emplace_back(std::nullopt);
      }
    }
    if (!any_indirect) r->indirect.clear();
  }

  AffineExpr to_affine(const PExpr& e) {
    switch (e.kind) {
      case PExpr::Kind::kNum:
        return AffineExpr::constant(depth_, e.num);
      case PExpr::Kind::kVar: {
        auto it = index_of_.find(e.name);
        if (it == index_of_.end())
          throw ParseError("unknown index variable " + e.name, e.line, e.col);
        return AffineExpr::index(depth_, it->second);
      }
      case PExpr::Kind::kAdd:
        return to_affine(e.kids[0]) + to_affine(e.kids[1]);
      case PExpr::Kind::kSub:
        return to_affine(e.kids[0]) - to_affine(e.kids[1]);
      case PExpr::Kind::kNeg:
        return to_affine(e.kids[0]).scaled(-1);
      case PExpr::Kind::kMul: {
        AffineExpr a = to_affine(e.kids[0]);
        AffineExpr b = to_affine(e.kids[1]);
        if (a.is_constant()) return b.scaled(a.constant_term());
        if (b.is_constant()) return a.scaled(b.constant_term());
        throw ParseError("non-affine product in subscript or bound", e.line,
                         e.col);
      }
      case PExpr::Kind::kRead:
        throw ParseError(
            "array reference not allowed here: bounds are affine, and a "
            "subscript may be exactly one index-array read (A[B[i]]), not "
            "nested or mixed into arithmetic",
            e.line, e.col);
    }
    throw ParseError("unreachable", e.line, e.col);
  }

  loopir::ExprPtr to_expr(const PExpr& e) {
    using loopir::Expr;
    switch (e.kind) {
      case PExpr::Kind::kNum:
        return Expr::constant(e.num);
      case PExpr::Kind::kVar: {
        auto it = index_of_.find(e.name);
        if (it == index_of_.end())
          throw ParseError("unknown index variable " + e.name, e.line, e.col);
        return Expr::index(it->second);
      }
      case PExpr::Kind::kAdd:
        return Expr::add(to_expr(e.kids[0]), to_expr(e.kids[1]));
      case PExpr::Kind::kSub:
        return Expr::sub(to_expr(e.kids[0]), to_expr(e.kids[1]));
      case PExpr::Kind::kNeg:
        return Expr::sub(Expr::constant(0), to_expr(e.kids[0]));
      case PExpr::Kind::kMul:
        return Expr::mul(to_expr(e.kids[0]), to_expr(e.kids[1]));
      case PExpr::Kind::kRead: {
        loopir::ArrayRef r;
        r.array = e.name;
        lower_subscripts(e.subscripts, &r);
        note_array(e.name, static_cast<int>(e.subscripts.size()), e.line, e.col);
        return Expr::read(std::move(r));
      }
    }
    throw ParseError("unreachable", e.line, e.col);
  }

  std::vector<loopir::ArrayDecl> infer_arrays(
      const std::vector<loopir::Level>& levels,
      const std::vector<loopir::Assign>& body) {
    // Iteration box via FM over the declared bounds.
    int unbounded = 0;
    const std::optional<poly::Box> hull =
        poly::iteration_box(loopir::LoopNest(levels, {}, {}), &unbounded);
    if (!hull)
      throw ParseError("iteration space unbounded in loop " +
                           levels[static_cast<std::size_t>(unbounded)].name,
                       1);
    const poly::Box& box = *hull;

    // Gather every reference per array.
    std::map<std::string, std::vector<const loopir::ArrayRef*>> refs;
    std::vector<loopir::ArrayRef> reads;
    for (const loopir::Assign& a : body) {
      refs[a.lhs.array].push_back(&a.lhs);
      a.rhs->collect_reads(&reads);
    }
    for (const loopir::ArrayRef& r : reads) refs[r.array].push_back(&r);

    // Index-array positions: B in A[B[i]] is sized from the affine pos
    // range over the box, like any affine subscript. An index array used
    // only as an index has no ArrayRef of its own; give it an (empty)
    // refs entry so the loop below emits its declaration.
    std::map<std::string, std::vector<const AffineExpr*>> index_pos;
    for (const auto& [name, list] : refs)
      for (const loopir::ArrayRef* r : list)
        for (const auto& ind : r->indirect)
          if (ind) index_pos[ind->array].push_back(&ind->pos);
    for (const auto& [name, list] : index_pos) refs.try_emplace(name);

    // Min/max of one affine expression over the iteration box.
    auto extremes = [&](const AffineExpr& s) {
      i64 lo = s.constant_term(), hi = s.constant_term();
      for (int k = 0; k < depth_; ++k) {
        i64 c = s.coeff(k);
        auto [bl, bh] = box[static_cast<std::size_t>(k)];
        lo = checked::add(lo, checked::mul(c, c >= 0 ? bl : bh));
        hi = checked::add(hi, checked::mul(c, c >= 0 ? bh : bl));
      }
      return std::pair<i64, i64>{lo, hi};
    };

    std::vector<loopir::ArrayDecl> out;
    for (const auto& [name, list] : refs) {
      auto declared = prog_.declared_arrays.find(name);
      if (declared != prog_.declared_arrays.end()) {
        if (static_cast<int>(declared->second.size()) != arity_.at(name))
          throw ParseError("array " + name + " declared with wrong arity", 1);
        out.push_back({name, declared->second});
        continue;
      }
      // A dimension fed through an index array has whatever extent the
      // array's runtime values span — nothing to infer from the source.
      for (const loopir::ArrayRef* r : list)
        for (const auto& ind : r->indirect)
          if (ind)
            throw ParseError(
                "array " + name +
                    " is subscripted through an index array; its extent "
                    "cannot be inferred — declare it with 'array " +
                    name + "[lo:hi]'",
                1);
      // Infer per-dimension extremes of the affine subscripts over the box.
      int arity = arity_.at(name);
      std::vector<std::pair<i64, i64>> dims(
          static_cast<std::size_t>(arity),
          {std::numeric_limits<i64>::max(), std::numeric_limits<i64>::min()});
      for (const loopir::ArrayRef* r : list) {
        for (int d = 0; d < arity; ++d) {
          auto [lo, hi] = extremes(r->subscripts[static_cast<std::size_t>(d)]);
          auto& dim = dims[static_cast<std::size_t>(d)];
          dim.first = std::min(dim.first, lo);
          dim.second = std::max(dim.second, hi);
        }
      }
      // Index-array uses widen (or, for a pure index array, establish)
      // the single dimension.
      if (auto it = index_pos.find(name); it != index_pos.end()) {
        for (const AffineExpr* s : it->second) {
          auto [lo, hi] = extremes(*s);
          dims[0].first = std::min(dims[0].first, lo);
          dims[0].second = std::max(dims[0].second, hi);
        }
      }
      out.push_back({name, std::move(dims)});
    }
    return out;
  }

  const PProgram& prog_;
  std::map<std::string, int> index_of_;
  std::map<std::string, int> arity_;
  int depth_ = 0;
};

}  // namespace

loopir::LoopNest parse_loop_nest(const std::string& source) {
  Parser parser(lex(source));
  PProgram prog = parser.parse();
  Lowerer lowerer(prog);
  return lowerer.lower();
}

Expected<loopir::LoopNest> try_parse_loop_nest(const std::string& source) {
  try {
    return parse_loop_nest(source);
  } catch (const ParseError& e) {
    return ApiError{ErrorKind::kParse, e.what(), e.line(), e.column()};
  } catch (const Error& e) {
    return detail::classify(e);
  }
}

}  // namespace vdep::dsl
