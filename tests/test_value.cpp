// Unit tests for the Value scalar type and its operation set.
#include <gtest/gtest.h>

#include <limits>

#include "support/value.hpp"

namespace valpipe {
namespace {

TEST(Value, KindsAndAccessors) {
  EXPECT_EQ(Value(true).kind(), ValueKind::Boolean);
  EXPECT_EQ(Value(std::int64_t{7}).kind(), ValueKind::Integer);
  EXPECT_EQ(Value(2.5).kind(), ValueKind::Real);
  EXPECT_TRUE(Value(true).asBoolean());
  EXPECT_EQ(Value(7).asInteger(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).asReal(), 2.5);
}

TEST(Value, DefaultIsIntegerZero) {
  Value v;
  EXPECT_TRUE(v.isInteger());
  EXPECT_EQ(v.asInteger(), 0);
}

TEST(Value, AccessorTypeErrors) {
  EXPECT_THROW(Value(1.0).asInteger(), ValueError);
  EXPECT_THROW(Value(1).asReal(), ValueError);
  EXPECT_THROW(Value(1).asBoolean(), ValueError);
  EXPECT_THROW(Value(true).toReal(), ValueError);
}

TEST(Value, ToRealWidensIntegers) {
  EXPECT_DOUBLE_EQ(Value(3).toReal(), 3.0);
  EXPECT_DOUBLE_EQ(Value(0.25).toReal(), 0.25);
}

TEST(Value, StructuralEquality) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_NE(Value(1), Value(1.0));  // kind-sensitive
  EXPECT_NE(Value(true), Value(1));
}

TEST(ValueOps, IntegerArithmeticStaysIntegral) {
  EXPECT_EQ(ops::add(Value(2), Value(3)), Value(5));
  EXPECT_EQ(ops::sub(Value(2), Value(3)), Value(-1));
  EXPECT_EQ(ops::mul(Value(4), Value(3)), Value(12));
  EXPECT_EQ(ops::div(Value(7), Value(2)), Value(3));  // integer division
}

TEST(ValueOps, MixedArithmeticPromotesToReal) {
  const Value v = ops::add(Value(2), Value(0.5));
  EXPECT_TRUE(v.isReal());
  EXPECT_DOUBLE_EQ(v.asReal(), 2.5);
  EXPECT_DOUBLE_EQ(ops::mul(Value(3), Value(0.5)).asReal(), 1.5);
}

TEST(ValueOps, DivisionByZeroThrows) {
  EXPECT_THROW(ops::div(Value(1), Value(0)), ValueError);
  EXPECT_THROW(ops::div(Value(1.0), Value(0.0)), ValueError);
}

TEST(ValueOps, Comparisons) {
  EXPECT_EQ(ops::lt(Value(1), Value(2)), Value(true));
  EXPECT_EQ(ops::le(Value(2), Value(2)), Value(true));
  EXPECT_EQ(ops::gt(Value(1), Value(2)), Value(false));
  EXPECT_EQ(ops::ge(Value(1.5), Value(2)), Value(false));
  EXPECT_EQ(ops::eq(Value(2), Value(2.0)), Value(true));  // numeric equality
  EXPECT_EQ(ops::ne(Value(2), Value(3)), Value(true));
  EXPECT_EQ(ops::eq(Value(true), Value(true)), Value(true));
}

TEST(ValueOps, BooleanOps) {
  EXPECT_EQ(ops::logicalAnd(Value(true), Value(false)), Value(false));
  EXPECT_EQ(ops::logicalOr(Value(true), Value(false)), Value(true));
  EXPECT_EQ(ops::logicalNot(Value(false)), Value(true));
  EXPECT_THROW(ops::logicalAnd(Value(1), Value(true)), ValueError);
}

TEST(ValueOps, NegAbsMinMax) {
  EXPECT_EQ(ops::neg(Value(4)), Value(-4));
  EXPECT_DOUBLE_EQ(ops::neg(Value(-2.5)).asReal(), 2.5);
  EXPECT_EQ(ops::abs(Value(-4)), Value(4));
  EXPECT_DOUBLE_EQ(ops::abs(Value(-2.5)).asReal(), 2.5);
  EXPECT_EQ(ops::min(Value(3), Value(5)), Value(3));
  EXPECT_EQ(ops::max(Value(3), Value(5)), Value(5));
  EXPECT_DOUBLE_EQ(ops::max(Value(3), Value(5.5)).asReal(), 5.5);
}

TEST(ValueOps, IntegerOverflowThrows) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_THROW(ops::add(Value(kMax), Value(1)), ValueError);
  EXPECT_THROW(ops::add(Value(kMin), Value(-1)), ValueError);
  EXPECT_THROW(ops::sub(Value(kMin), Value(1)), ValueError);
  EXPECT_THROW(ops::sub(Value(0), Value(kMin)), ValueError);
  EXPECT_THROW(ops::mul(Value(std::int64_t{1} << 62), Value(2)), ValueError);
  EXPECT_THROW(ops::mul(Value(kMin), Value(-1)), ValueError);
  EXPECT_THROW(ops::neg(Value(kMin)), ValueError);
  EXPECT_THROW(ops::abs(Value(kMin)), ValueError);
  EXPECT_THROW(ops::div(Value(kMin), Value(-1)), ValueError);
  // The edges themselves are representable and stay exact.
  EXPECT_EQ(ops::add(Value(kMax - 1), Value(1)), Value(kMax));
  EXPECT_EQ(ops::sub(Value(kMin + 1), Value(1)), Value(kMin));
  EXPECT_EQ(ops::mul(Value(std::int64_t{1} << 62), Value(-2)), Value(kMin));
  EXPECT_EQ(ops::neg(Value(kMax)), Value(kMin + 1));
  EXPECT_EQ(ops::abs(Value(kMin + 1)), Value(kMax));
  EXPECT_EQ(ops::div(Value(kMin), Value(1)), Value(kMin));
  EXPECT_EQ(ops::div(Value(kMax), Value(-1)), Value(kMin + 1));
  EXPECT_EQ(ops::mod(Value(kMin), Value(3)), Value(1));
  // Real arithmetic keeps IEEE semantics.
  EXPECT_DOUBLE_EQ(ops::mul(Value(1e308), Value(10.0)).asReal(),
                   std::numeric_limits<double>::infinity());
}

TEST(ValueOps, IntegerOverflowThrowsInAnyPackLane) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const Value safe = Value::pack({Value(1), Value(2), Value(3)});
  const Value edge = Value::pack({Value(1), Value(kMax), Value(3)});
  EXPECT_EQ(ops::add(safe, Value(1)),
            Value::pack({Value(2), Value(3), Value(4)}));
  EXPECT_THROW(ops::add(edge, Value(1)), ValueError);
  EXPECT_THROW(ops::add(Value(1), edge), ValueError);
  EXPECT_THROW(ops::mul(edge, safe), ValueError);
  EXPECT_THROW(ops::sub(Value::pack({Value(0), Value(kMin)}), Value(1)),
               ValueError);
  const Value minLane = Value::pack({Value(5), Value(kMin)});
  EXPECT_THROW(ops::neg(minLane), ValueError);
  EXPECT_THROW(ops::abs(minLane), ValueError);
  EXPECT_THROW(ops::div(minLane, Value(-1)), ValueError);
}

TEST(ValueOps, ArithmeticRejectsBooleans) {
  EXPECT_THROW(ops::add(Value(true), Value(1)), ValueError);
  EXPECT_THROW(ops::lt(Value(true), Value(1)), ValueError);
}

TEST(Value, Printing) {
  EXPECT_EQ(Value(true).str(), "true");
  EXPECT_EQ(Value(42).str(), "42");
  EXPECT_EQ(Value(2.5).str(), "2.5");
}

}  // namespace
}  // namespace valpipe
