#include "qrel/util/rational.h"

#include <limits>
#include <utility>

#include "qrel/util/check.h"

namespace qrel {

Rational::Rational(BigInt numerator, BigInt denominator)
    : numerator_(std::move(numerator)), denominator_(std::move(denominator)) {
  QREL_CHECK_MSG(!denominator_.IsZero(), "Rational with zero denominator");
  Normalize();
}

void Rational::Normalize() {
  if (denominator_.IsNegative()) {
    numerator_ = numerator_.Negated();
    denominator_ = denominator_.Negated();
  }
  if (numerator_.IsZero()) {
    denominator_ = BigInt(1);
    return;
  }
  BigInt g = BigInt::Gcd(numerator_, denominator_);
  if (!g.IsOne()) {
    numerator_ = numerator_ / g;
    denominator_ = denominator_ / g;
  }
}

void RationalSum::Add(const Rational& term, int64_t times) {
  if (term.IsZero() || times == 0) {
    return;
  }
  BigInt numerator =
      times == 1 ? term.numerator() : term.numerator() * BigInt(times);
  BigInt::DivModResult split = denominator_.DivMod(term.denominator());
  if (split.remainder.IsZero()) {
    numerator_ += numerator * split.quotient;
    return;
  }
  // Widen the running denominator to lcm(denominator_, term's).
  BigInt g = BigInt::Gcd(denominator_, term.denominator());
  BigInt widen = term.denominator() / g;
  numerator_ = numerator_ * widen + numerator * (denominator_ / g);
  denominator_ *= widen;
}

StatusOr<Rational> Rational::Parse(std::string_view text) {
  if (text.empty()) {
    return Status::InvalidArgument("empty rational literal");
  }
  size_t slash = text.find('/');
  if (slash != std::string_view::npos) {
    StatusOr<BigInt> numerator = BigInt::FromDecimalString(text.substr(0, slash));
    if (!numerator.ok()) {
      return numerator.status();
    }
    StatusOr<BigInt> denominator =
        BigInt::FromDecimalString(text.substr(slash + 1));
    if (!denominator.ok()) {
      return denominator.status();
    }
    if (denominator->IsZero()) {
      return Status::InvalidArgument("rational with zero denominator: " +
                                     std::string(text));
    }
    return Rational(std::move(numerator).value(),
                    std::move(denominator).value());
  }
  size_t dot = text.find('.');
  if (dot != std::string_view::npos) {
    std::string digits;
    digits.reserve(text.size());
    digits.append(text.substr(0, dot));
    std::string_view fraction = text.substr(dot + 1);
    if (fraction.empty()) {
      return Status::InvalidArgument("decimal literal ends in '.': " +
                                     std::string(text));
    }
    digits.append(fraction);
    StatusOr<BigInt> numerator = BigInt::FromDecimalString(digits);
    if (!numerator.ok()) {
      return numerator.status();
    }
    BigInt denominator = BigInt::Pow(BigInt(10),
                                     static_cast<uint32_t>(fraction.size()));
    return Rational(std::move(numerator).value(), std::move(denominator));
  }
  StatusOr<BigInt> numerator = BigInt::FromDecimalString(text);
  if (!numerator.ok()) {
    return numerator.status();
  }
  return Rational(std::move(numerator).value(), BigInt(1));
}

bool Rational::IsProbability() const {
  return Sign() >= 0 && Compare(Rational(1)) <= 0;
}

Rational Rational::operator+(const Rational& other) const {
  return Rational(numerator_ * other.denominator_ +
                      other.numerator_ * denominator_,
                  denominator_ * other.denominator_);
}

Rational Rational::operator-(const Rational& other) const {
  return Rational(numerator_ * other.denominator_ -
                      other.numerator_ * denominator_,
                  denominator_ * other.denominator_);
}

Rational Rational::operator*(const Rational& other) const {
  return Rational(numerator_ * other.numerator_,
                  denominator_ * other.denominator_);
}

Rational Rational::operator/(const Rational& other) const {
  QREL_CHECK_MSG(!other.IsZero(), "Rational division by zero");
  return Rational(numerator_ * other.denominator_,
                  denominator_ * other.numerator_);
}

Rational Rational::operator-() const {
  Rational result = *this;
  result.numerator_ = result.numerator_.Negated();
  return result;
}

int Rational::Compare(const Rational& other) const {
  // Denominators are positive, so cross-multiplication preserves order.
  return (numerator_ * other.denominator_)
      .Compare(other.numerator_ * denominator_);
}

std::string Rational::ToString() const {
  if (denominator_.IsOne()) {
    return numerator_.ToDecimalString();
  }
  return numerator_.ToDecimalString() + "/" + denominator_.ToDecimalString();
}

double Rational::ToDouble() const {
  // Scale down both parts together to stay inside double range for huge
  // operands.
  size_t num_bits = numerator_.BitLength();
  size_t den_bits = denominator_.BitLength();
  if (num_bits < 900 && den_bits < 900) {
    return numerator_.ToDouble() / denominator_.ToDouble();
  }
  size_t shift = (num_bits > den_bits ? num_bits : den_bits) - 512;
  BigInt num = numerator_.ShiftRight(shift);
  BigInt den = denominator_.ShiftRight(shift);
  if (den.IsZero()) {
    // Denominator vanished: the value overflows double range.
    return numerator_.IsNegative()
               ? -std::numeric_limits<double>::infinity()
               : std::numeric_limits<double>::infinity();
  }
  return num.ToDouble() / den.ToDouble();
}

}  // namespace qrel
