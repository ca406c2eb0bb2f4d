#include "qrel/util/rational.h"

#include <gtest/gtest.h>

#include "qrel/util/rng.h"

namespace qrel {
namespace {

TEST(RationalTest, DefaultIsZero) {
  Rational zero;
  EXPECT_TRUE(zero.IsZero());
  EXPECT_EQ(zero.ToString(), "0");
  EXPECT_EQ(zero.denominator().ToInt64(), 1);
}

TEST(RationalTest, NormalizationReducesAndFixesSign) {
  Rational r(6, 8);
  EXPECT_EQ(r.numerator().ToInt64(), 3);
  EXPECT_EQ(r.denominator().ToInt64(), 4);

  Rational negative_den(3, -4);
  EXPECT_EQ(negative_den.numerator().ToInt64(), -3);
  EXPECT_EQ(negative_den.denominator().ToInt64(), 4);

  Rational double_negative(-3, -4);
  EXPECT_EQ(double_negative.numerator().ToInt64(), 3);

  Rational zero(0, -17);
  EXPECT_TRUE(zero.IsZero());
  EXPECT_EQ(zero.denominator().ToInt64(), 1);
}

TEST(RationalTest, ArithmeticBasics) {
  Rational half(1, 2);
  Rational third(1, 3);
  EXPECT_EQ((half + third).ToString(), "5/6");
  EXPECT_EQ((half - third).ToString(), "1/6");
  EXPECT_EQ((half * third).ToString(), "1/6");
  EXPECT_EQ((half / third).ToString(), "3/2");
  EXPECT_EQ((-half).ToString(), "-1/2");
  EXPECT_EQ(half.Complement().ToString(), "1/2");
  EXPECT_EQ(Rational(1, 4).Complement().ToString(), "3/4");
}

TEST(RationalTest, ComparisonCrossMultiplies) {
  EXPECT_LT(Rational(1, 3).Compare(Rational(1, 2)), 0);
  EXPECT_GT(Rational(2, 3).Compare(Rational(1, 2)), 0);
  EXPECT_EQ(Rational(2, 4).Compare(Rational(1, 2)), 0);
  EXPECT_TRUE(Rational(-1, 2) < Rational(1, 3));
  EXPECT_TRUE(Rational(1, 2) == Rational(3, 6));
}

TEST(RationalTest, IsProbability) {
  EXPECT_TRUE(Rational(0).IsProbability());
  EXPECT_TRUE(Rational(1).IsProbability());
  EXPECT_TRUE(Rational(1, 2).IsProbability());
  EXPECT_FALSE(Rational(-1, 2).IsProbability());
  EXPECT_FALSE(Rational(3, 2).IsProbability());
}

TEST(RationalTest, ParseFractions) {
  EXPECT_EQ(Rational::Parse("3/4")->ToString(), "3/4");
  EXPECT_EQ(Rational::Parse("6/8")->ToString(), "3/4");
  EXPECT_EQ(Rational::Parse("-3/4")->ToString(), "-3/4");
  EXPECT_EQ(Rational::Parse("7")->ToString(), "7");
  EXPECT_EQ(Rational::Parse("0")->ToString(), "0");
}

TEST(RationalTest, ParseDecimals) {
  EXPECT_EQ(Rational::Parse("0.25")->ToString(), "1/4");
  EXPECT_EQ(Rational::Parse("0.1")->ToString(), "1/10");
  EXPECT_EQ(Rational::Parse("-0.5")->ToString(), "-1/2");
  EXPECT_EQ(Rational::Parse("1.5")->ToString(), "3/2");
  EXPECT_FALSE(Rational::Parse("2.").ok());
}

TEST(RationalTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Rational::Parse("").ok());
  EXPECT_FALSE(Rational::Parse("1/0").ok());
  EXPECT_FALSE(Rational::Parse("a/b").ok());
  EXPECT_FALSE(Rational::Parse("1//2").ok());
  EXPECT_FALSE(Rational::Parse("1.2.3").ok());
}

TEST(RationalTest, ToDoubleMatches) {
  EXPECT_DOUBLE_EQ(Rational(1, 2).ToDouble(), 0.5);
  EXPECT_DOUBLE_EQ(Rational(-1, 4).ToDouble(), -0.25);
  EXPECT_DOUBLE_EQ(Rational(1, 3).ToDouble(), 1.0 / 3.0);
}

TEST(RationalTest, ToDoubleSurvivesHugeOperands) {
  // Numerator and denominator each ~2000 bits; the quotient is 1/2.
  BigInt huge = BigInt::TwoPow(2000);
  Rational ratio(huge, huge * BigInt(2));
  EXPECT_DOUBLE_EQ(ratio.ToDouble(), 0.5);
}

TEST(RationalTest, SumOfWorldProbabilitiesStyleIdentity) {
  // Σ over 8 outcomes of a 3-coin product distribution is exactly 1.
  Rational p1(1, 3), p2(1, 7), p3(2, 5);
  Rational total;
  for (int code = 0; code < 8; ++code) {
    Rational term = Rational::One();
    term *= (code & 1) ? p1 : p1.Complement();
    term *= (code & 2) ? p2 : p2.Complement();
    term *= (code & 4) ? p3 : p3.Complement();
    total += term;
  }
  EXPECT_TRUE(total.IsOne());
}

TEST(RationalSumTest, MatchesTheRationalSumOfTheSameTerms) {
  Rng rng(77);
  for (int round = 0; round < 50; ++round) {
    Rational start(static_cast<int64_t>(rng.NextBelow(7)),
                   static_cast<int64_t>(rng.NextBelow(5)) + 1);
    Rational expected = start;
    RationalSum sum(start);
    for (int i = 0; i < 40; ++i) {
      // Mostly divisors of 360, as world weights share one denominator,
      // plus terms that force the denominator to widen; some negative.
      int64_t den = static_cast<int64_t>(rng.NextBelow(97)) + 1;
      if (rng.NextBelow(4) != 0) {
        den = 360 / (static_cast<int64_t>(rng.NextBelow(6)) + 1);
      }
      Rational term(static_cast<int64_t>(rng.NextBelow(41)) - 10, den);
      int64_t times = static_cast<int64_t>(rng.NextBelow(4));
      expected += term * Rational(times);
      sum.Add(term, times);
      EXPECT_EQ(sum.Value(), expected);
    }
    EXPECT_EQ(sum.Value().ToString(), expected.ToString());
  }
}

class RationalFieldPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RationalFieldPropertyTest, FieldAxiomsHold) {
  Rng rng(GetParam());
  auto random_rational = [&rng]() {
    int64_t num = static_cast<int64_t>(rng.NextBelow(2000)) - 1000;
    int64_t den = static_cast<int64_t>(rng.NextBelow(999)) + 1;
    return Rational(num, den);
  };
  for (int i = 0; i < 100; ++i) {
    Rational a = random_rational();
    Rational b = random_rational();
    Rational c = random_rational();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_TRUE((a - a).IsZero());
    if (!a.IsZero()) {
      EXPECT_EQ((b / a) * a, b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalFieldPropertyTest,
                         ::testing::Values(101u, 202u, 303u, 404u));

}  // namespace
}  // namespace qrel
