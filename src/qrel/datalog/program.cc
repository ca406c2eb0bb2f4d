#include "qrel/datalog/program.h"

#include <algorithm>
#include <cctype>
#include <set>

namespace qrel {

std::string DatalogAtom::ToString() const {
  std::string result = relation + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i != 0) result += ", ";
    result += args[i].ToString();
  }
  return result + ")";
}

std::string DatalogRule::ToString() const {
  std::string result = head.ToString();
  if (!body.empty()) {
    result += " :- ";
    for (size_t i = 0; i < body.size(); ++i) {
      if (i != 0) result += ", ";
      if (!body[i].positive) result += "!";
      result += body[i].atom.ToString();
    }
  }
  return result + ".";
}

std::vector<std::string> DatalogProgram::IdbPredicates() const {
  std::vector<std::string> result;
  for (const DatalogRule& rule : rules) {
    if (std::find(result.begin(), result.end(), rule.head.relation) ==
        result.end()) {
      result.push_back(rule.head.relation);
    }
  }
  return result;
}

DatalogStrata StratifyDatalogProgram(const DatalogProgram& program) {
  const std::vector<std::string> idb = program.IdbPredicates();
  auto is_idb = [&idb](const std::string& name) {
    return std::find(idb.begin(), idb.end(), name) != idb.end();
  };
  DatalogStrata strata;
  for (const std::string& predicate : idb) {
    strata.stratum[predicate] = 0;
  }
  std::set<std::string> cyclic;
  int idb_count = static_cast<int>(idb.size());
  bool changed = true;
  for (int round = 0; changed && round <= idb_count * idb_count + 1;
       ++round) {
    changed = false;
    for (size_t r = 0; r < program.rules.size(); ++r) {
      const DatalogRule& rule = program.rules[r];
      int& head_stratum = strata.stratum[rule.head.relation];
      for (const DatalogLiteral& literal : rule.body) {
        if (!is_idb(literal.atom.relation)) {
          continue;
        }
        int required =
            strata.stratum[literal.atom.relation] + (literal.positive ? 0 : 1);
        if (head_stratum < required) {
          head_stratum = required;
          changed = true;
          if (head_stratum > idb_count) {
            if (cyclic.insert(rule.head.relation).second) {
              strata.negative_cycles.push_back(r);
            }
            head_stratum = idb_count;
          }
        }
      }
    }
  }
  return strata;
}

std::string DatalogProgram::ToString() const {
  std::string result;
  for (const DatalogRule& rule : rules) {
    result += rule.ToString();
    result += "\n";
  }
  return result;
}

namespace {

class RuleParser {
 public:
  RuleParser(std::string_view text, Diagnostic* diagnostic)
      : text_(text), diagnostic_(diagnostic) {}

  StatusOr<DatalogProgram> Parse() {
    DatalogProgram program;
    SkipSpace();
    while (pos_ < text_.size()) {
      StatusOr<DatalogRule> rule = ParseRule();
      if (!rule.ok()) {
        return rule.status();
      }
      program.rules.push_back(*rule);
      SkipSpace();
    }
    if (program.rules.empty()) {
      if (diagnostic_ != nullptr) {
        *diagnostic_ = MakeError("syntax-error", "empty Datalog program");
      }
      return Status::InvalidArgument("empty Datalog program");
    }
    return program;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Status Error(const std::string& message) {
    if (diagnostic_ != nullptr) {
      *diagnostic_ = MakeError("syntax-error", message,
                               SourceRange{pos_, pos_ + 1});
    }
    return Status::InvalidArgument("at position " + std::to_string(pos_) +
                                   ": " + message);
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeTurnstile() {
    SkipSpace();
    if (pos_ + 1 < text_.size() && text_[pos_] == ':' &&
        text_[pos_ + 1] == '-') {
      pos_ += 2;
      return true;
    }
    return false;
  }

  StatusOr<std::string> ParseIdentifier() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("expected an identifier");
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  StatusOr<Term> ParseTerm() {
    SkipSpace();
    if (pos_ < text_.size() &&
        (text_[pos_] == '#' ||
         std::isdigit(static_cast<unsigned char>(text_[pos_])))) {
      if (text_[pos_] == '#') {
        ++pos_;
      }
      size_t start = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == start) {
        return Error("expected digits after '#'");
      }
      long value = 0;
      for (size_t i = start; i < pos_; ++i) {
        value = value * 10 + (text_[i] - '0');
        if (value > 1000000000) {
          return Error("constant out of range");
        }
      }
      return Term::Const(static_cast<Element>(value));
    }
    StatusOr<std::string> name = ParseIdentifier();
    if (!name.ok()) {
      return name.status();
    }
    return Term::Var(*name);
  }

  StatusOr<DatalogAtom> ParseAtom() {
    SkipSpace();
    size_t start = pos_;
    StatusOr<std::string> relation = ParseIdentifier();
    if (!relation.ok()) {
      return relation.status();
    }
    DatalogAtom atom;
    atom.relation = *relation;
    if (!Consume('(')) {
      return Error("expected '(' after predicate name");
    }
    if (Consume(')')) {
      atom.range = SourceRange{start, pos_};
      return atom;
    }
    for (;;) {
      StatusOr<Term> term = ParseTerm();
      if (!term.ok()) {
        return term.status();
      }
      atom.args.push_back(*term);
      if (Consume(')')) {
        atom.range = SourceRange{start, pos_};
        return atom;
      }
      if (!Consume(',')) {
        return Error("expected ',' or ')' in argument list");
      }
    }
  }

  StatusOr<DatalogRule> ParseRule() {
    SkipSpace();
    size_t start = pos_;
    DatalogRule rule;
    StatusOr<DatalogAtom> head = ParseAtom();
    if (!head.ok()) {
      return head.status();
    }
    rule.head = *head;
    if (ConsumeTurnstile()) {
      for (;;) {
        DatalogLiteral literal;
        literal.positive = !Consume('!');
        StatusOr<DatalogAtom> atom = ParseAtom();
        if (!atom.ok()) {
          return atom.status();
        }
        literal.atom = *atom;
        rule.body.push_back(std::move(literal));
        if (Consume('.')) {
          rule.range = SourceRange{start, pos_};
          return rule;
        }
        if (!Consume(',')) {
          return Error("expected ',' or '.' after a body literal");
        }
      }
    }
    if (!Consume('.')) {
      return Error("expected '.' after a fact rule");
    }
    rule.range = SourceRange{start, pos_};
    return rule;
  }

  std::string_view text_;
  size_t pos_ = 0;
  Diagnostic* diagnostic_;
};

}  // namespace

StatusOr<DatalogProgram> ParseDatalogProgram(std::string_view text) {
  return RuleParser(text, nullptr).Parse();
}

StatusOr<DatalogProgram> ParseDatalogProgram(std::string_view text,
                                             Diagnostic* syntax_error) {
  return RuleParser(text, syntax_error).Parse();
}

}  // namespace qrel
