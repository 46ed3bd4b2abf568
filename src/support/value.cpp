#include "support/value.hpp"

#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

namespace valpipe {

const char* toString(ValueKind kind) {
  switch (kind) {
    case ValueKind::Boolean: return "boolean";
    case ValueKind::Integer: return "integer";
    case ValueKind::Real: return "real";
    case ValueKind::Pack: return "pack";
  }
  return "?";
}

ValueKind Value::kind() const {
  if (isBoolean()) return ValueKind::Boolean;
  if (isInteger()) return ValueKind::Integer;
  if (isReal()) return ValueKind::Real;
  return ValueKind::Pack;
}

namespace {
[[noreturn]] void kindError(const char* want, const Value& got) {
  throw ValueError(std::string("expected ") + want + ", got " + got.str());
}
}  // namespace

Value Value::pack(std::vector<Value> lanes) {
  if (lanes.empty()) throw ValueError("empty lane pack");
  for (const Value& v : lanes)
    if (v.isPack()) throw ValueError("nested lane pack");
  Value v;
  v.rep_ = std::make_shared<const std::vector<Value>>(std::move(lanes));
  return v;
}

bool Value::asBoolean() const {
  if (isPack()) {
    // A pack in boolean position (gate port, merge selector) is only
    // meaningful when control is lane-uniform; divergence is the batched
    // run's signal to fall back to per-tenant execution.
    const std::vector<Value>& ls = *std::get<Lanes>(rep_);
    const bool first = ls.front().asBoolean();
    for (std::size_t i = 1; i < ls.size(); ++i)
      if (ls[i].asBoolean() != first)
        throw ValueError("divergent lanes in boolean context: " + str());
    return first;
  }
  if (!isBoolean()) kindError("boolean", *this);
  return std::get<bool>(rep_);
}

std::int64_t Value::asInteger() const {
  if (!isInteger()) kindError("integer", *this);
  return std::get<std::int64_t>(rep_);
}

double Value::asReal() const {
  if (!isReal()) kindError("real", *this);
  return std::get<double>(rep_);
}

double Value::toReal() const {
  if (isReal()) return std::get<double>(rep_);
  if (isInteger()) return static_cast<double>(std::get<std::int64_t>(rep_));
  kindError("numeric", *this);
}

bool operator==(const Value& a, const Value& b) {
  if (a.isPack() || b.isPack()) {
    if (!a.isPack() || !b.isPack()) return false;
    const auto& la = std::get<Value::Lanes>(a.rep_);
    const auto& lb = std::get<Value::Lanes>(b.rep_);
    if (la == lb) return true;  // shared lane vector
    return *la == *lb;          // lane-wise structural equality
  }
  return a.rep_ == b.rep_;
}

std::string Value::str() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  switch (v.kind()) {
    case ValueKind::Boolean: return os << (v.asBoolean() ? "true" : "false");
    case ValueKind::Integer: return os << v.asInteger();
    case ValueKind::Real: return os << v.asReal();
    case ValueKind::Pack: {
      os << "pack(";
      for (std::size_t i = 0; i < v.laneWidth(); ++i)
        os << (i ? "|" : "") << v.lane(i);
      return os << ")";
    }
  }
  return os;
}

namespace ops {
namespace {

using BinOp = Value (*)(const Value&, const Value&);
using UnOp = Value (*)(const Value&);

/// Lane-wise broadcast of a binary scalar op: a scalar operand replicates
/// across the pack's lanes; two packs must have equal width.  Each lane
/// re-enters the scalar op, so per-lane results are bit-identical to the
/// unbatched computation.
Value lanewise(const Value& a, const Value& b, BinOp f) {
  const std::size_t wa = a.laneWidth(), wb = b.laneWidth();
  if (a.isPack() && b.isPack() && wa != wb)
    throw ValueError("lane width mismatch: " + std::to_string(wa) + " vs " +
                     std::to_string(wb));
  const std::size_t w = wa > wb ? wa : wb;
  std::vector<Value> lanes;
  lanes.reserve(w);
  for (std::size_t i = 0; i < w; ++i) lanes.push_back(f(a.lane(i), b.lane(i)));
  return Value::pack(std::move(lanes));
}

Value lanewise(const Value& a, UnOp f) {
  std::vector<Value> lanes;
  lanes.reserve(a.laneWidth());
  for (std::size_t i = 0; i < a.laneWidth(); ++i) lanes.push_back(f(a.lane(i)));
  return Value::pack(std::move(lanes));
}

/// Applies `fi` when both operands are integers, otherwise promotes to real
/// and applies `fr`.  Booleans are rejected.
template <class FInt, class FReal>
Value numeric(const Value& a, const Value& b, FInt fi, FReal fr) {
  if (a.isInteger() && b.isInteger()) return Value(fi(a.asInteger(), b.asInteger()));
  return Value(fr(a.toReal(), b.toReal()));
}

template <class FInt, class FReal>
Value compare(const Value& a, const Value& b, FInt fi, FReal fr) {
  if (a.isInteger() && b.isInteger()) return Value(fi(a.asInteger(), b.asInteger()));
  return Value(fr(a.toReal(), b.toReal()));
}

bool anyPack(const Value& a, const Value& b) { return a.isPack() || b.isPack(); }

/// Integer overflow is an error like division by zero, never a wrapped (or
/// undefined) result.
[[noreturn]] void overflow(const char* op) {
  throw ValueError(std::string("integer overflow in ") + op);
}

std::int64_t checkedAdd(std::int64_t x, std::int64_t y) {
  std::int64_t r;
  if (__builtin_add_overflow(x, y, &r)) overflow("+");
  return r;
}

std::int64_t checkedSub(std::int64_t x, std::int64_t y) {
  std::int64_t r;
  if (__builtin_sub_overflow(x, y, &r)) overflow("-");
  return r;
}

std::int64_t checkedMul(std::int64_t x, std::int64_t y) {
  std::int64_t r;
  if (__builtin_mul_overflow(x, y, &r)) overflow("*");
  return r;
}

}  // namespace

Value add(const Value& a, const Value& b) {
  if (anyPack(a, b)) return lanewise(a, b, &add);
  return numeric(a, b, checkedAdd, [](double x, double y) { return x + y; });
}

Value sub(const Value& a, const Value& b) {
  if (anyPack(a, b)) return lanewise(a, b, &sub);
  return numeric(a, b, checkedSub, [](double x, double y) { return x - y; });
}

Value mul(const Value& a, const Value& b) {
  if (anyPack(a, b)) return lanewise(a, b, &mul);
  return numeric(a, b, checkedMul, [](double x, double y) { return x * y; });
}

Value div(const Value& a, const Value& b) {
  if (anyPack(a, b)) return lanewise(a, b, &div);
  if (a.isInteger() && b.isInteger()) {
    if (b.asInteger() == 0) throw ValueError("integer division by zero");
    if (b.asInteger() == -1 &&
        a.asInteger() == std::numeric_limits<std::int64_t>::min())
      overflow("/");
    return Value(a.asInteger() / b.asInteger());
  }
  const double d = b.toReal();
  if (d == 0.0) throw ValueError("real division by zero");
  return Value(a.toReal() / d);
}

Value neg(const Value& a) {
  if (a.isPack()) return lanewise(a, &neg);
  if (a.isInteger()) return Value(checkedSub(0, a.asInteger()));
  return Value(-a.toReal());
}

Value abs(const Value& a) {
  if (a.isPack()) return lanewise(a, &abs);
  if (a.isInteger())
    return Value(a.asInteger() < 0 ? checkedSub(0, a.asInteger())
                                   : a.asInteger());
  return Value(std::fabs(a.toReal()));
}

Value min(const Value& a, const Value& b) {
  if (anyPack(a, b)) return lanewise(a, b, &min);
  return numeric(a, b, [](auto x, auto y) { return x < y ? x : y; },
                 [](double x, double y) { return x < y ? x : y; });
}

Value max(const Value& a, const Value& b) {
  if (anyPack(a, b)) return lanewise(a, b, &max);
  return numeric(a, b, [](auto x, auto y) { return x > y ? x : y; },
                 [](double x, double y) { return x > y ? x : y; });
}

Value mod(const Value& a, const Value& n) {
  if (anyPack(a, n)) return lanewise(a, n, &mod);
  const std::int64_t x = a.asInteger();
  const std::int64_t m = n.asInteger();
  if (m <= 0) throw ValueError("modulo by non-positive value");
  const std::int64_t r = x % m;
  return Value(r < 0 ? r + m : r);
}

Value lt(const Value& a, const Value& b) {
  if (anyPack(a, b)) return lanewise(a, b, &lt);
  return compare(a, b, [](auto x, auto y) { return x < y; },
                 [](double x, double y) { return x < y; });
}

Value le(const Value& a, const Value& b) {
  if (anyPack(a, b)) return lanewise(a, b, &le);
  return compare(a, b, [](auto x, auto y) { return x <= y; },
                 [](double x, double y) { return x <= y; });
}

Value gt(const Value& a, const Value& b) {
  if (anyPack(a, b)) return lanewise(a, b, &gt);
  return compare(a, b, [](auto x, auto y) { return x > y; },
                 [](double x, double y) { return x > y; });
}

Value ge(const Value& a, const Value& b) {
  if (anyPack(a, b)) return lanewise(a, b, &ge);
  return compare(a, b, [](auto x, auto y) { return x >= y; },
                 [](double x, double y) { return x >= y; });
}

Value eq(const Value& a, const Value& b) {
  if (anyPack(a, b)) return lanewise(a, b, &eq);
  if (a.isBoolean() || b.isBoolean()) return Value(a.asBoolean() == b.asBoolean());
  return compare(a, b, [](auto x, auto y) { return x == y; },
                 [](double x, double y) { return x == y; });
}

Value ne(const Value& a, const Value& b) {
  if (anyPack(a, b)) return lanewise(a, b, &ne);
  return Value(!eq(a, b).asBoolean());
}

Value logicalAnd(const Value& a, const Value& b) {
  if (anyPack(a, b)) return lanewise(a, b, &logicalAnd);
  return Value(a.asBoolean() && b.asBoolean());
}

Value logicalOr(const Value& a, const Value& b) {
  if (anyPack(a, b)) return lanewise(a, b, &logicalOr);
  return Value(a.asBoolean() || b.asBoolean());
}

Value logicalNot(const Value& a) {
  if (a.isPack()) return lanewise(a, &logicalNot);
  return Value(!a.asBoolean());
}

}  // namespace ops
}  // namespace valpipe
