// Runtime scalar value for the Val evaluator and the dataflow simulators.
//
// The static dataflow machine of the paper moves scalar result packets; a
// packet payload is one of the Val scalar types: boolean, integer, real.
// `Value` is that payload.  Arithmetic follows Val semantics: integer ops stay
// integral, mixed integer/real promotes to real, relational operators yield
// booleans.  Division by zero, int64 overflow (including INT64_MIN / -1 and
// the negation or absolute value of INT64_MIN) and type confusion raise
// ValueError — the simulators must never fold such an error into a bogus
// number.
//
// Lane packs.  A Value may also be a *pack* of B scalar lanes — the payload
// currency of lane-batched serving (src/serve/): B independent tenants' data
// travels through one graph instance, one pack per packet.  Packs are
// deliberately second-class:
//   - every scalar op broadcasts lane-wise (scalar operands replicate), so a
//     lane's result is bit-identical to the scalar run on that lane alone;
//   - boolean contexts (gates, merge selectors) accept a pack only when all
//     lanes agree; a divergent pack throws ValueError, which the serving
//     layer treats as "this batch has data-dependent control — rerun the
//     tenants individually";
//   - packs never nest, and asInteger/asReal/toReal reject them, so control
//     sequences and array indices stay scalar by construction.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace valpipe {

/// Error in a scalar operation (type mismatch, division by zero, divergent
/// lanes in a boolean context, ...).
class ValueError : public std::runtime_error {
 public:
  explicit ValueError(const std::string& what) : std::runtime_error(what) {}
};

/// Discriminator for Value.
enum class ValueKind { Boolean, Integer, Real, Pack };

/// Returns a printable name ("boolean", "integer", "real", "pack").
const char* toString(ValueKind kind);

/// A Val scalar: boolean, integer or real — or a pack of scalar lanes.
/// Default-constructs to integer 0.
class Value {
 public:
  Value() : rep_(std::int64_t{0}) {}
  /* implicit */ Value(bool b) : rep_(b) {}                 // NOLINT
  /* implicit */ Value(std::int64_t i) : rep_(i) {}         // NOLINT
  /* implicit */ Value(int i) : rep_(std::int64_t{i}) {}    // NOLINT
  /* implicit */ Value(double r) : rep_(r) {}               // NOLINT

  /// Packs `lanes` (each a scalar) into one value.  Throws ValueError on an
  /// empty vector or a nested pack.
  static Value pack(std::vector<Value> lanes);

  ValueKind kind() const;

  bool isBoolean() const { return std::holds_alternative<bool>(rep_); }
  bool isInteger() const { return std::holds_alternative<std::int64_t>(rep_); }
  bool isReal() const { return std::holds_alternative<double>(rep_); }
  bool isNumeric() const { return isInteger() || isReal(); }
  bool isPack() const { return std::holds_alternative<Lanes>(rep_); }

  /// Lane count: packs report their width, scalars are width 1.
  std::size_t laneWidth() const {
    return isPack() ? std::get<Lanes>(rep_)->size() : 1;
  }
  /// Lane `i` of a pack; a scalar is its own sole lane for any `i`
  /// (broadcast view).
  const Value& lane(std::size_t i) const {
    return isPack() ? (*std::get<Lanes>(rep_))[i] : *this;
  }

  /// Accessors throw ValueError when the kind does not match.  asBoolean
  /// additionally accepts a lane-uniform boolean pack (and throws on a
  /// divergent one — the lane-batching fallback trigger).
  bool asBoolean() const;
  std::int64_t asInteger() const;
  double asReal() const;
  /// Numeric value as double (integer is widened); throws on boolean/pack.
  double toReal() const;

  /// Exact structural equality (kind and payload; packs lane-wise).
  /// `1 == 1.0` is false here; use the EQ operation for Val's numeric
  /// comparison.
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  std::string str() const;

 private:
  /// Packs share their (immutable) lane vector: copying a pack Value is one
  /// refcount bump, the same cost class as copying a scalar.
  using Lanes = std::shared_ptr<const std::vector<Value>>;
  std::variant<bool, std::int64_t, double, Lanes> rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

/// Scalar operations shared by the reference evaluator and both simulators so
/// every engine computes bit-identical results.  Every op broadcasts over
/// lane packs (scalar operands replicate across lanes; two packs must have
/// equal width).
namespace ops {

Value add(const Value& a, const Value& b);
Value sub(const Value& a, const Value& b);
Value mul(const Value& a, const Value& b);
Value div(const Value& a, const Value& b);
Value neg(const Value& a);
Value abs(const Value& a);
Value min(const Value& a, const Value& b);
Value max(const Value& a, const Value& b);
/// Euclidean modulo on integers (result in [0, n) for n > 0).
Value mod(const Value& a, const Value& n);

Value lt(const Value& a, const Value& b);
Value le(const Value& a, const Value& b);
Value gt(const Value& a, const Value& b);
Value ge(const Value& a, const Value& b);
Value eq(const Value& a, const Value& b);
Value ne(const Value& a, const Value& b);

Value logicalAnd(const Value& a, const Value& b);
Value logicalOr(const Value& a, const Value& b);
Value logicalNot(const Value& a);

}  // namespace ops
}  // namespace valpipe
