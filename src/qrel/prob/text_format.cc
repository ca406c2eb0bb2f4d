#include "qrel/prob/text_format.h"

#include <cstring>
#include <memory>
#include <new>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "qrel/relational/atom_table.h"
#include "qrel/util/fault_injection.h"
#include "qrel/util/vfs.h"

namespace qrel {

namespace {

// Input hardening caps: a single .udb line longer than this, or with more
// tokens than this, is rejected with a `line N:` error instead of being
// buffered without bound. Generous for any legitimate fact line (the
// bottleneck is arity), tight enough that adversarial input cannot force
// pathological allocations per line.
constexpr size_t kMaxLineLength = 1 << 16;
constexpr size_t kMaxLineTokens = 1 << 12;
// A database file bigger than this is rejected outright rather than
// buffered: far beyond any legitimate database text, small enough to bound
// memory.
constexpr size_t kMaxDatabaseFileBytes = size_t{1} << 30;

std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == '#') {
      break;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
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

StatusOr<int> ParseInt(const std::string& token, int line_number) {
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

StatusOr<UnreliableDatabase> ParseUdbImpl(std::string_view text) {
  auto vocabulary = std::make_shared<Vocabulary>();
  int universe_size = -1;

  struct PendingAtom {
    GroundAtom atom;
    bool observed_true;
    Rational error;
  };
  std::vector<PendingAtom> pending;
  // Atoms already named by a fact/absent line; a second line for the same
  // atom is rejected rather than silently overwriting the first.
  std::unordered_set<GroundAtom, GroundAtomHash> declared;

  std::istringstream stream{std::string(text)};
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    QREL_FAULT_SITE("prob.parse_udb.line");
    if (line.size() > kMaxLineLength) {
      return LineError(line_number,
                       "line exceeds " + std::to_string(kMaxLineLength) +
                           " characters");
    }
    std::vector<std::string> tokens = Tokenize(line);
    if (tokens.size() > kMaxLineTokens) {
      return LineError(line_number,
                       "line has more than " +
                           std::to_string(kMaxLineTokens) + " tokens");
    }
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
      StatusOr<int> n = ParseInt(tokens[1], line_number);
      if (!n.ok()) return n.status();
      if (*n <= 0) {
        return LineError(line_number, "universe size must be positive");
      }
      universe_size = *n;
    } else if (directive == "relation") {
      if (tokens.size() != 3) {
        return LineError(line_number, "'relation' takes a name and an arity");
      }
      if (vocabulary->FindRelation(tokens[1]).has_value()) {
        return LineError(line_number, "duplicate relation '" + tokens[1] + "'");
      }
      StatusOr<int> arity = ParseInt(tokens[2], line_number);
      if (!arity.ok()) return arity.status();
      vocabulary->AddRelation(tokens[1], *arity);
    } else if (directive == "fact" || directive == "absent") {
      if (universe_size == -1) {
        return LineError(line_number, "'universe' must come before facts");
      }
      if (tokens.size() < 2) {
        return LineError(line_number, "'" + directive + "' needs a relation");
      }
      std::optional<int> relation = vocabulary->FindRelation(tokens[1]);
      if (!relation.has_value()) {
        return LineError(line_number, "unknown relation '" + tokens[1] + "'");
      }
      int arity = vocabulary->relation(*relation).arity;

      // Optional trailing "err=<rational>".
      Rational error = Rational::Zero();
      size_t arg_end = tokens.size();
      if (!tokens.empty() && tokens.back().rfind("err=", 0) == 0) {
        StatusOr<Rational> parsed = Rational::Parse(tokens.back().substr(4));
        if (!parsed.ok()) {
          return LineError(line_number, parsed.status().message());
        }
        if (!parsed->IsProbability()) {
          return LineError(line_number, "error probability outside [0, 1]");
        }
        error = *parsed;
        --arg_end;
      }
      if (static_cast<int>(arg_end) - 2 != arity) {
        return LineError(line_number,
                         "relation '" + tokens[1] + "' has arity " +
                             std::to_string(arity) + " but " +
                             std::to_string(static_cast<int>(arg_end) - 2) +
                             " arguments were given");
      }
      PendingAtom entry;
      entry.atom.relation = *relation;
      for (size_t i = 2; i < arg_end; ++i) {
        StatusOr<int> element = ParseInt(tokens[i], line_number);
        if (!element.ok()) return element.status();
        if (*element >= universe_size) {
          return LineError(line_number, "element " + tokens[i] +
                                            " outside universe of size " +
                                            std::to_string(universe_size));
        }
        entry.atom.args.push_back(*element);
      }
      if (!declared.insert(entry.atom).second) {
        return LineError(line_number,
                         "atom " +
                             GroundAtomToString(entry.atom, *vocabulary) +
                             " already declared by an earlier fact/absent "
                             "line");
      }
      entry.observed_true = directive == "fact";
      entry.error = std::move(error);
      pending.push_back(std::move(entry));
    } else {
      return LineError(line_number, "unknown directive '" + directive + "'");
    }
  }

  if (universe_size == -1) {
    return Status::InvalidArgument("missing 'universe' directive");
  }

  Structure observed(vocabulary, universe_size);
  for (const PendingAtom& entry : pending) {
    if (entry.observed_true) {
      observed.AddFact(entry.atom.relation, entry.atom.args);
    }
  }
  UnreliableDatabase database(std::move(observed));
  for (const PendingAtom& entry : pending) {
    if (!entry.error.IsZero()) {
      database.SetErrorProbability(entry.atom, entry.error);
    }
  }
  return database;
}

}  // namespace

StatusOr<UnreliableDatabase> ParseUdb(std::string_view text) {
  try {
    return ParseUdbImpl(text);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("out of memory while parsing .udb text");
  }
}

StatusOr<std::vector<uint8_t>> ReadDatabaseFile(const std::string& path) {
  // Through the injectable filesystem (util/vfs.h) so catalog loads share
  // the same fault drills as the snapshot/manifest write path.
  StatusOr<std::vector<uint8_t>> bytes =
      ProcessVfs().ReadFileBytes(path, kMaxDatabaseFileBytes);
  if (!bytes.ok()) {
    // Missing file and unreadable file are different operational problems:
    // kNotFound is a caller typo or a deployment gap, anything else (EACCES,
    // EISDIR, ENOSPC on a network mount, ...) is an environment fault.
    if (bytes.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no such file: '" + path + "'");
    }
    return Status(bytes.status().code(),
                  "cannot read '" + path + "': " + bytes.status().message());
  }
  return bytes;
}

StatusOr<UnreliableDatabase> LoadUdbFile(const std::string& path) {
  StatusOr<std::vector<uint8_t>> bytes = ReadDatabaseFile(path);
  if (!bytes.ok()) {
    return bytes.status();
  }
  QREL_RETURN_IF_ERROR(QREL_FAULT_HIT("prob.load_udb.read"));
  return ParseUdb(std::string_view(
      reinterpret_cast<const char*>(bytes->data()), bytes->size()));
}

std::string FormatUdb(const UnreliableDatabase& database) {
  std::ostringstream out;
  const Vocabulary& vocabulary = database.vocabulary();
  out << "universe " << database.universe_size() << "\n";
  for (int r = 0; r < vocabulary.relation_count(); ++r) {
    out << "relation " << vocabulary.relation(r).name << " "
        << vocabulary.relation(r).arity << "\n";
  }
  // Observed facts, with their error probability when one is set.
  for (int r = 0; r < vocabulary.relation_count(); ++r) {
    for (const Tuple& tuple : database.observed().Facts(r)) {
      out << "fact " << vocabulary.relation(r).name;
      for (Element e : tuple) {
        out << " " << e;
      }
      Rational mu = database.model().ErrorOf(GroundAtom{r, tuple});
      if (!mu.IsZero()) {
        out << " err=" << mu.ToString();
      }
      out << "\n";
    }
  }
  // Unreliable negative information.
  const ErrorModel& model = database.model();
  for (int id = 0; id < model.entry_count(); ++id) {
    const GroundAtom& atom = model.atom(id);
    if (database.observed().AtomTrue(atom.relation, atom.args)) {
      continue;  // already emitted with its fact line
    }
    if (model.error(id).IsZero()) {
      continue;
    }
    out << "absent " << vocabulary.relation(atom.relation).name;
    for (Element e : atom.args) {
      out << " " << e;
    }
    out << " err=" << model.error(id).ToString() << "\n";
  }
  return out.str();
}

}  // namespace qrel
