#include <gtest/gtest.h>

#include "rel/value.h"

namespace mdm::rel {
namespace {

TEST(ValueTest, TypesAndToString) {
  EXPECT_EQ(Value::Null().type(), ValueType::kNull);
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::Float(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::String("x").ToString(), "'x'");
  EXPECT_EQ(Value::Rat(Rational(3, 4)).ToString(), "3/4");
  EXPECT_EQ(Value::Ref(17).ToString(), "#17");
}

TEST(ValueTest, CompareSemantics) {
  EXPECT_EQ(*Value::Int(1).Compare(Value::Int(2)), -1);
  EXPECT_EQ(*Value::Int(2).Compare(Value::Float(2.0)), 0);  // numeric
  EXPECT_EQ(*Value::Float(3.5).Compare(Value::Int(3)), 1);
  EXPECT_EQ(*Value::String("a").Compare(Value::String("b")), -1);
  EXPECT_EQ(*Value::Rat(Rational(1, 3)).Compare(Value::Rat(Rational(1, 2))),
            -1);
  EXPECT_EQ(*Value::Null().Compare(Value::Null()), 0);
  EXPECT_EQ(*Value::Null().Compare(Value::Int(0)), -1);
  // Cross-type comparison errors.
  EXPECT_EQ(Value::Int(1).Compare(Value::String("1")).status().code(),
            StatusCode::kTypeError);
  EXPECT_FALSE(Value::Int(1).Equals(Value::String("1")));
  EXPECT_TRUE(Value::Int(2).Equals(Value::Float(2.0)));
}

TEST(ValueTest, EncodeDecodeAllTypes) {
  std::vector<Value> values = {
      Value::Null(),          Value::Bool(true),
      Value::Int(-123456789), Value::Float(2.71828),
      Value::String("hello"), Value::Rat(Rational(-5, 8)),
      Value::Ref(42)};
  ByteWriter w;
  for (const Value& v : values) v.Encode(&w);
  ByteReader r(w.data());
  for (const Value& expected : values) {
    Value got;
    ASSERT_TRUE(Value::Decode(&r, &got).ok());
    EXPECT_TRUE(got.Equals(expected)) << expected.ToString();
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(ValueTest, DecodeRejectsGarbage) {
  ByteWriter w;
  w.PutU8(99);  // invalid tag
  ByteReader r(w.data());
  Value v;
  EXPECT_EQ(Value::Decode(&r, &v).code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace mdm::rel
