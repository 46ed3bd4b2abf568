#include "val/constfold.hpp"

namespace valpipe::val {

std::optional<std::int64_t> constEvalInt(
    const ExprPtr& e, const std::map<std::string, std::int64_t>& consts) {
  if (!e) return std::nullopt;
  switch (e->kind) {
    case Expr::Kind::IntLit:
      return e->intValue;
    case Expr::Kind::Ident: {
      auto it = consts.find(e->name);
      if (it == consts.end()) return std::nullopt;
      return it->second;
    }
    case Expr::Kind::Unary: {
      if (e->uop != UnOp::Neg) return std::nullopt;
      auto v = constEvalInt(e->a, consts);
      std::int64_t r;
      if (!v || __builtin_sub_overflow(std::int64_t{0}, *v, &r))
        return std::nullopt;
      return r;
    }
    case Expr::Kind::Binary: {
      auto a = constEvalInt(e->a, consts);
      auto b = constEvalInt(e->b, consts);
      if (!a || !b) return std::nullopt;
      // An overflowing constant is not a constant (never a wrapped one).
      std::int64_t r;
      bool overflow;
      switch (e->bop) {
        case BinOp::Add: overflow = __builtin_add_overflow(*a, *b, &r); break;
        case BinOp::Sub: overflow = __builtin_sub_overflow(*a, *b, &r); break;
        case BinOp::Mul: overflow = __builtin_mul_overflow(*a, *b, &r); break;
        default: return std::nullopt;
      }
      if (overflow) return std::nullopt;
      return r;
    }
    default:
      return std::nullopt;
  }
}

namespace {

std::optional<Value> evalScalar(const ExprPtr& e,
                                std::map<std::string, Value>& env,
                                const std::map<std::string, std::int64_t>& consts) {
  switch (e->kind) {
    case Expr::Kind::IntLit: return Value(e->intValue);
    case Expr::Kind::RealLit: return Value(e->realValue);
    case Expr::Kind::BoolLit: return Value(e->boolValue);
    case Expr::Kind::Ident: {
      auto it = env.find(e->name);
      if (it != env.end()) return it->second;
      auto c = consts.find(e->name);
      if (c != consts.end()) return Value(c->second);
      return std::nullopt;
    }
    case Expr::Kind::Unary: {
      auto a = evalScalar(e->a, env, consts);
      if (!a) return std::nullopt;
      return e->uop == UnOp::Neg ? ops::neg(*a) : ops::logicalNot(*a);
    }
    case Expr::Kind::Binary: {
      auto a = evalScalar(e->a, env, consts);
      auto b = evalScalar(e->b, env, consts);
      if (!a || !b) return std::nullopt;
      switch (e->bop) {
        case BinOp::Add: return ops::add(*a, *b);
        case BinOp::Sub: return ops::sub(*a, *b);
        case BinOp::Mul: return ops::mul(*a, *b);
        case BinOp::Div: return ops::div(*a, *b);
        case BinOp::Lt: return ops::lt(*a, *b);
        case BinOp::Le: return ops::le(*a, *b);
        case BinOp::Gt: return ops::gt(*a, *b);
        case BinOp::Ge: return ops::ge(*a, *b);
        case BinOp::Eq: return ops::eq(*a, *b);
        case BinOp::Ne: return ops::ne(*a, *b);
        case BinOp::And: return ops::logicalAnd(*a, *b);
        case BinOp::Or: return ops::logicalOr(*a, *b);
      }
      return std::nullopt;
    }
    case Expr::Kind::If: {
      auto c = evalScalar(e->a, env, consts);
      if (!c || !c->isBoolean()) return std::nullopt;
      return evalScalar(c->asBoolean() ? e->b : e->c, env, consts);
    }
    case Expr::Kind::Let: {
      std::map<std::string, Value> inner = env;
      for (const Def& d : e->defs) {
        auto v = evalScalar(d.value, inner, consts);
        if (!v) return std::nullopt;
        inner[d.name] = *v;
      }
      return evalScalar(e->body, inner, consts);
    }
    case Expr::Kind::ArrayIndex:
      return std::nullopt;  // not index-only
  }
  return std::nullopt;
}

}  // namespace

std::optional<Value> evalIndexOnlyAt(
    const ExprPtr& e, const std::string& idxVar, std::int64_t i,
    const std::map<std::string, std::int64_t>& consts) {
  if (!e) return std::nullopt;
  std::map<std::string, Value> env{{idxVar, Value(i)}};
  try {
    return evalScalar(e, env, consts);
  } catch (const ValueError&) {
    return std::nullopt;
  }
}

std::optional<Value> evalIndexOnlyAt2(
    const ExprPtr& e, const std::string& v1, std::int64_t i,
    const std::string& v2, std::int64_t j,
    const std::map<std::string, std::int64_t>& consts) {
  if (!e) return std::nullopt;
  std::map<std::string, Value> env{{v1, Value(i)}, {v2, Value(j)}};
  try {
    return evalScalar(e, env, consts);
  } catch (const ValueError&) {
    return std::nullopt;
  }
}

std::optional<std::vector<Value>> evalOverIndex2(
    const ExprPtr& e, const std::string& v1, Range r1, const std::string& v2,
    Range r2, const std::map<std::string, std::int64_t>& consts) {
  std::vector<Value> out;
  out.reserve(static_cast<std::size_t>(r1.length() * r2.length()));
  for (std::int64_t i = r1.lo; i <= r1.hi; ++i)
    for (std::int64_t j = r2.lo; j <= r2.hi; ++j) {
      auto v = evalIndexOnlyAt2(e, v1, i, v2, j, consts);
      if (!v) return std::nullopt;
      out.push_back(*v);
    }
  return out;
}

std::optional<std::vector<Value>> evalOverIndex(
    const ExprPtr& e, const std::string& idxVar, Range range,
    const std::map<std::string, std::int64_t>& consts) {
  std::vector<Value> out;
  out.reserve(static_cast<std::size_t>(range.length()));
  for (std::int64_t i = range.lo; i <= range.hi; ++i) {
    auto v = evalIndexOnlyAt(e, idxVar, i, consts);
    if (!v) return std::nullopt;
    out.push_back(*v);
  }
  return out;
}

std::optional<std::int64_t> resolveLoopLastIndex(
    const ForIterBlock& fi, const std::map<std::string, std::int64_t>& consts) {
  const ExprPtr& cond = fi.cond;
  if (!cond || cond->kind != Expr::Kind::Binary) return std::nullopt;
  if (cond->bop != BinOp::Lt && cond->bop != BinOp::Le) return std::nullopt;
  if (cond->a->kind != Expr::Kind::Ident || cond->a->name != fi.indexVar)
    return std::nullopt;
  auto bound = constEvalInt(cond->b, consts);
  if (!bound) return std::nullopt;
  return cond->bop == BinOp::Lt ? *bound - 1 : *bound;
}

}  // namespace valpipe::val
