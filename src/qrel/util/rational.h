// Exact rational arithmetic on BigInt.
//
// All probabilities in an unreliable database are rationals (the paper's
// complexity model assumes rational error probabilities in a standard
// encoding); the exact reliability algorithms keep them exact end-to-end.
//
// Invariant: the denominator is positive, and numerator/denominator are
// coprime; zero is 0/1.

#ifndef QREL_UTIL_RATIONAL_H_
#define QREL_UTIL_RATIONAL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "qrel/util/bigint.h"
#include "qrel/util/status.h"

namespace qrel {

class Rational {
 public:
  // Zero.
  Rational() : numerator_(0), denominator_(1) {}
  // NOLINTNEXTLINE(google-explicit-constructor): integer literals should
  // convert implicitly, mirroring built-in numeric behaviour.
  Rational(int64_t value) : numerator_(value), denominator_(1) {}
  // numerator/denominator, normalized. Aborts if denominator is zero.
  Rational(BigInt numerator, BigInt denominator);
  Rational(int64_t numerator, int64_t denominator)
      : Rational(BigInt(numerator), BigInt(denominator)) {}

  // Parses "p", "p/q", or decimal notation "0.125" (exact: 125/1000
  // normalized). Fails on malformed input or zero denominator.
  static StatusOr<Rational> Parse(std::string_view text);

  static Rational Zero() { return Rational(); }
  static Rational One() { return Rational(1); }
  // 1/2, the probability used by both hardness reductions in the paper.
  static Rational Half() { return Rational(1, 2); }

  const BigInt& numerator() const { return numerator_; }
  const BigInt& denominator() const { return denominator_; }

  bool IsZero() const { return numerator_.IsZero(); }
  bool IsOne() const { return numerator_.IsOne() && denominator_.IsOne(); }
  int Sign() const { return numerator_.Sign(); }
  // Whether the value lies in the closed interval [0, 1].
  bool IsProbability() const;

  Rational operator+(const Rational& other) const;
  Rational operator-(const Rational& other) const;
  Rational operator*(const Rational& other) const;
  // Aborts on division by zero.
  Rational operator/(const Rational& other) const;
  Rational operator-() const;
  Rational& operator+=(const Rational& other) { return *this = *this + other; }
  Rational& operator-=(const Rational& other) { return *this = *this - other; }
  Rational& operator*=(const Rational& other) { return *this = *this * other; }
  Rational& operator/=(const Rational& other) { return *this = *this / other; }

  // 1 - *this; ubiquitous for complementary probabilities.
  Rational Complement() const { return Rational(1) - *this; }

  int Compare(const Rational& other) const;
  bool operator==(const Rational& other) const { return Compare(other) == 0; }
  bool operator!=(const Rational& other) const { return Compare(other) != 0; }
  bool operator<(const Rational& other) const { return Compare(other) < 0; }
  bool operator<=(const Rational& other) const { return Compare(other) <= 0; }
  bool operator>(const Rational& other) const { return Compare(other) > 0; }
  bool operator>=(const Rational& other) const { return Compare(other) >= 0; }

  // "p" when the denominator is 1, otherwise "p/q".
  std::string ToString() const;
  double ToDouble() const;

 private:
  void Normalize();

  BigInt numerator_;
  BigInt denominator_;
};

// An exact running sum Σ times·term that skips Rational::operator+'s gcd
// per term: the numerator and denominator stay unreduced, and a term whose
// denominator divides the running one costs one division and one
// multiply-add. The denominator only grows to an lcm, so for Thm 4.2's
// world weights, which all divide Π den(μ), it stops growing after the
// first few worlds. Value() is the reduced sum, the same rational as the
// Rational sum of the same terms.
class RationalSum {
 public:
  RationalSum() = default;
  explicit RationalSum(const Rational& start)
      : numerator_(start.numerator()), denominator_(start.denominator()) {}

  void Add(const Rational& term, int64_t times = 1);
  Rational Value() const { return Rational(numerator_, denominator_); }

 private:
  BigInt numerator_;
  BigInt denominator_ = BigInt(1);
};

}  // namespace qrel

#endif  // QREL_UTIL_RATIONAL_H_
