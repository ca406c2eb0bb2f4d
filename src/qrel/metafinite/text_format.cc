#include "qrel/metafinite/text_format.h"

#include <memory>
#include <new>
#include <sstream>
#include <vector>

#include "qrel/prob/text_format.h"
#include "qrel/util/fault_injection.h"

namespace qrel {

namespace {

std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == '#') {
      break;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == ',' || c == ':' ||
        c == '=' || c == '@') {
      // Punctuation separates tokens; the directives below re-validate the
      // token counts, so treating ',', ':', '=' and '@' as whitespace
      // keeps the grammar simple without ambiguity.
      if (!current.empty()) {
        tokens.push_back(current);
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) {
    tokens.push_back(current);
  }
  return tokens;
}

Status LineError(int line_number, const std::string& message) {
  return Status::InvalidArgument("line " + std::to_string(line_number) + ": " +
                                 message);
}

StatusOr<int> ParseSmallInt(const std::string& token, int line_number) {
  if (token.empty()) {
    return LineError(line_number, "empty integer");
  }
  int value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') {
      return LineError(line_number, "invalid integer '" + token + "'");
    }
    if (value > 100000000) {
      return LineError(line_number, "integer out of range '" + token + "'");
    }
    value = value * 10 + (c - '0');
  }
  return value;
}

}  // namespace

namespace {

StatusOr<UnreliableFunctionalDatabase> ParseMfdbImpl(std::string_view text) {
  auto vocabulary = std::make_shared<FunctionalVocabulary>();
  int universe_size = -1;

  struct PendingValue {
    FunctionEntry entry;
    Rational value;
  };
  struct PendingDistribution {
    FunctionEntry entry;
    ValueDistribution distribution;
    int line_number;
  };
  std::vector<PendingValue> values;
  std::vector<PendingDistribution> distributions;

  std::istringstream stream{std::string(text)};
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    QREL_FAULT_SITE("metafinite.parse_mfdb.line");
    std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) {
      continue;
    }
    const std::string& directive = tokens[0];
    if (directive == "universe") {
      if (universe_size != -1) {
        return LineError(line_number, "duplicate 'universe' directive");
      }
      if (tokens.size() != 2) {
        return LineError(line_number, "'universe' takes exactly one argument");
      }
      StatusOr<int> n = ParseSmallInt(tokens[1], line_number);
      if (!n.ok()) return n.status();
      if (*n <= 0) {
        return LineError(line_number, "universe size must be positive");
      }
      universe_size = *n;
    } else if (directive == "function") {
      if (tokens.size() != 3) {
        return LineError(line_number, "'function' takes a name and an arity");
      }
      if (vocabulary->FindFunction(tokens[1]).has_value()) {
        return LineError(line_number, "duplicate function '" + tokens[1] + "'");
      }
      StatusOr<int> arity = ParseSmallInt(tokens[2], line_number);
      if (!arity.ok()) return arity.status();
      vocabulary->AddFunction(tokens[1], *arity);
    } else if (directive == "value" || directive == "dist") {
      if (universe_size == -1) {
        return LineError(line_number, "'universe' must come before entries");
      }
      if (tokens.size() < 2) {
        return LineError(line_number, "'" + directive + "' needs a function");
      }
      std::optional<int> function = vocabulary->FindFunction(tokens[1]);
      if (!function.has_value()) {
        return LineError(line_number, "unknown function '" + tokens[1] + "'");
      }
      int arity = vocabulary->function(*function).arity;
      if (static_cast<int>(tokens.size()) < 2 + arity + 1) {
        return LineError(line_number, "too few tokens for '" + directive +
                                          "' on function '" + tokens[1] + "'");
      }
      FunctionEntry entry;
      entry.relation = *function;
      for (int i = 0; i < arity; ++i) {
        StatusOr<int> element =
            ParseSmallInt(tokens[static_cast<size_t>(2 + i)], line_number);
        if (!element.ok()) return element.status();
        if (*element >= universe_size) {
          return LineError(line_number,
                           "element outside universe of size " +
                               std::to_string(universe_size));
        }
        entry.args.push_back(*element);
      }
      size_t cursor = static_cast<size_t>(2 + arity);
      if (directive == "value") {
        if (tokens.size() != cursor + 1) {
          return LineError(line_number, "'value' takes exactly one value");
        }
        StatusOr<Rational> value = Rational::Parse(tokens[cursor]);
        if (!value.ok()) {
          return LineError(line_number, value.status().message());
        }
        values.push_back({std::move(entry), *value});
      } else {
        // value/probability pairs.
        if ((tokens.size() - cursor) % 2 != 0 ||
            tokens.size() == cursor) {
          return LineError(line_number,
                           "'dist' takes value/probability pairs");
        }
        ValueDistribution distribution;
        for (size_t i = cursor; i + 1 < tokens.size(); i += 2) {
          StatusOr<Rational> value = Rational::Parse(tokens[i]);
          if (!value.ok()) {
            return LineError(line_number, value.status().message());
          }
          StatusOr<Rational> probability = Rational::Parse(tokens[i + 1]);
          if (!probability.ok()) {
            return LineError(line_number, probability.status().message());
          }
          distribution.outcomes.push_back({*value, *probability});
        }
        distributions.push_back(
            {std::move(entry), std::move(distribution), line_number});
      }
    } else {
      return LineError(line_number, "unknown directive '" + directive + "'");
    }
  }

  if (universe_size == -1) {
    return Status::InvalidArgument("missing 'universe' directive");
  }

  FunctionalStructure observed(vocabulary, universe_size);
  for (const PendingValue& pending : values) {
    observed.SetValue(pending.entry.relation, pending.entry.args,
                      pending.value);
  }
  UnreliableFunctionalDatabase database(std::move(observed));
  for (PendingDistribution& pending : distributions) {
    StatusOr<int> set = database.SetDistribution(
        pending.entry, std::move(pending.distribution));
    if (!set.ok()) {
      return LineError(pending.line_number, set.status().message());
    }
  }
  return database;
}

}  // namespace

StatusOr<UnreliableFunctionalDatabase> ParseMfdb(std::string_view text) {
  try {
    return ParseMfdbImpl(text);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("out of memory while parsing .mfdb text");
  }
}

StatusOr<UnreliableFunctionalDatabase> LoadMfdbFile(const std::string& path) {
  StatusOr<std::vector<uint8_t>> bytes = ReadDatabaseFile(path);
  if (!bytes.ok()) {
    return bytes.status();
  }
  QREL_RETURN_IF_ERROR(QREL_FAULT_HIT("metafinite.load_mfdb.read"));
  return ParseMfdb(std::string_view(
      reinterpret_cast<const char*>(bytes->data()), bytes->size()));
}

std::string FormatMfdb(const UnreliableFunctionalDatabase& database) {
  std::ostringstream out;
  const FunctionalVocabulary& vocabulary = database.vocabulary();
  out << "universe " << database.universe_size() << "\n";
  for (int f = 0; f < vocabulary.function_count(); ++f) {
    out << "function " << vocabulary.function(f).name << " "
        << vocabulary.function(f).arity << "\n";
  }
  for (const auto& [entry, value] : database.observed().ExplicitValues()) {
    out << "value " << vocabulary.function(entry.relation).name;
    for (Element e : entry.args) {
      out << " " << e;
    }
    out << " = " << value.ToString() << "\n";
  }
  for (int id = 0; id < database.uncertain_entry_count(); ++id) {
    const FunctionEntry& entry = database.uncertain_entry(id);
    out << "dist " << vocabulary.function(entry.relation).name;
    for (Element e : entry.args) {
      out << " " << e;
    }
    out << " :";
    const ValueDistribution& distribution = database.distribution(id);
    for (size_t o = 0; o < distribution.outcomes.size(); ++o) {
      if (o != 0) {
        out << ",";
      }
      out << " " << distribution.outcomes[o].value.ToString() << " @ "
          << distribution.outcomes[o].probability.ToString();
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace qrel
