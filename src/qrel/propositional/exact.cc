#include "qrel/propositional/exact.h"

#include <utility>

#include "qrel/util/check.h"
#include "qrel/util/governed_loop.h"

namespace qrel {

namespace {

// Terms represented as (variable, positive) lists, shrinking as variables
// get decided. An empty term list means false; a list containing an empty
// term means true.
using Term = std::vector<PropLiteral>;

// Conditions `terms` on variable `variable` = `value`: terms contradicted
// by the choice disappear, satisfied literals are removed. Returns true if
// some term became empty (formula satisfied).
bool Condition(const std::vector<Term>& terms, int variable, bool value,
               std::vector<Term>* out) {
  out->clear();
  for (const Term& term : terms) {
    Term reduced;
    reduced.reserve(term.size());
    bool alive = true;
    for (const PropLiteral& literal : term) {
      if (literal.variable == variable) {
        if (literal.positive != value) {
          alive = false;
          break;
        }
        continue;  // literal satisfied
      }
      reduced.push_back(literal);
    }
    if (!alive) {
      continue;
    }
    if (reduced.empty()) {
      return true;
    }
    out->push_back(std::move(reduced));
  }
  return false;
}

Status Shannon(const std::vector<Term>& terms,
               const std::vector<Rational>& prob_true, RunContext* ctx,
               Rational* out) {
  *out = Rational::Zero();
  if (terms.empty()) {
    return Status::Ok();
  }
  // One expansion node; the worst case is exponential in the variable
  // count, which is exactly what a work budget needs to see.
  QREL_RETURN_IF_ERROR(ChargeWork(ctx));

  // Branch on the first variable of the first term; it appears in at least
  // one term, so both branches strictly simplify.
  int variable = terms[0][0].variable;
  const Rational& p = prob_true[static_cast<size_t>(variable)];

  std::vector<Term> branch;
  Rational result;
  if (!p.IsZero()) {
    if (Condition(terms, variable, true, &branch)) {
      result += p;
    } else {
      Rational sub;
      QREL_RETURN_IF_ERROR(Shannon(branch, prob_true, ctx, &sub));
      result += p * sub;
    }
  }
  Rational q = p.Complement();
  if (!q.IsZero()) {
    if (Condition(terms, variable, false, &branch)) {
      result += q;
    } else {
      Rational sub;
      QREL_RETURN_IF_ERROR(Shannon(branch, prob_true, ctx, &sub));
      result += q * sub;
    }
  }
  *out = std::move(result);
  return Status::Ok();
}

}  // namespace

StatusOr<Rational> ShannonDnfProbability(const Dnf& dnf,
                                         const std::vector<Rational>& prob_true,
                                         RunContext* ctx) {
  QREL_CHECK_EQ(static_cast<int>(prob_true.size()), dnf.variable_count());
  std::vector<Term> terms;
  terms.reserve(static_cast<size_t>(dnf.term_count()));
  for (int i = 0; i < dnf.term_count(); ++i) {
    if (dnf.term(i).empty()) {
      return Rational::One();  // the constant-true term
    }
    terms.push_back(dnf.term(i));
  }
  Rational result;
  QREL_RETURN_IF_ERROR(Shannon(terms, prob_true, ctx, &result));
  return result;
}

Rational ShannonDnfProbability(const Dnf& dnf,
                               const std::vector<Rational>& prob_true) {
  // Ungoverned runs cannot trip a budget.
  return std::move(ShannonDnfProbability(dnf, prob_true, nullptr)).value();
}

StatusOr<Rational> BruteForceDnfProbability(
    const Dnf& dnf, const std::vector<Rational>& prob_true, RunContext* ctx) {
  QREL_CHECK_EQ(static_cast<int>(prob_true.size()), dnf.variable_count());
  QREL_CHECK_LE(dnf.variable_count(), 25);
  size_t n = static_cast<size_t>(dnf.variable_count());

  Fingerprint fingerprint;
  fingerprint.Mix("propositional.brute_force");
  MixDnfContent(dnf, prob_true, &fingerprint);
  GovernedLoop loop(ctx, {.kind = "propositional.brute_force.v1",
                          .fingerprint = fingerprint.value(),
                          .end = uint64_t{1} << n});

  Rational total;
  // Payload: the next assignment's code, then the running total.
  QREL_RETURN_IF_ERROR(loop.Resume([&](SnapshotReader& r, uint64_t* code) {
    QREL_RETURN_IF_ERROR(r.U64(code));
    return r.RationalVal(&total);
  }));
  PropAssignment assignment(n, 0);
  QREL_RETURN_IF_ERROR(loop.Run(
      [&](SnapshotWriter& w, uint64_t code) {
        w.U64(code);
        w.RationalVal(total);
      },
      [&](uint64_t code) {
        for (size_t i = 0; i < n; ++i) {
          assignment[i] = (code >> i) & 1u;
        }
        if (!dnf.Eval(assignment)) {
          return Status::Ok();
        }
        Rational probability = Rational::One();
        for (size_t i = 0; i < n; ++i) {
          probability *=
              assignment[i] ? prob_true[i] : prob_true[i].Complement();
          if (probability.IsZero()) {
            break;
          }
        }
        total += probability;
        return Status::Ok();
      }));
  return total;
}

Rational BruteForceDnfProbability(const Dnf& dnf,
                                  const std::vector<Rational>& prob_true) {
  return std::move(BruteForceDnfProbability(dnf, prob_true, nullptr)).value();
}

StatusOr<BigInt> CountDnfModels(const Dnf& dnf, RunContext* ctx) {
  std::vector<Rational> half(static_cast<size_t>(dnf.variable_count()),
                             Rational::Half());
  StatusOr<Rational> probability = ShannonDnfProbability(dnf, half, ctx);
  if (!probability.ok()) {
    return probability.status();
  }
  Rational count =
      *probability *
      Rational(BigInt::TwoPow(static_cast<uint32_t>(dnf.variable_count())),
               BigInt(1));
  QREL_CHECK(count.denominator().IsOne());
  return count.numerator();
}

BigInt CountDnfModels(const Dnf& dnf) {
  return std::move(CountDnfModels(dnf, nullptr)).value();
}

}  // namespace qrel
