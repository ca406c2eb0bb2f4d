#include "workloads.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "qrel/core/reliability.h"
#include "qrel/datalog/program.h"
#include "qrel/datalog/reliability.h"
#include "qrel/lifted/extensional.h"
#include "qrel/logic/parser.h"
#include "qrel/metafinite/reliability.h"
#include "qrel/metafinite/text_format.h"
#include "qrel/prob/text_format.h"
#include "qrel/util/rng.h"

namespace perfbench {

namespace {

using qrel::Rng;

// FNV-1a of the kind name mixed with the variant: the generator seed of
// one pool entry.
uint64_t VariantSeed(const std::string& kind, int variant) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : kind) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h ^ (static_cast<uint64_t>(variant) * 0x9e3779b97f4a7c15ULL);
}

const char* Pick(const std::vector<const char*>& options, Rng* rng) {
  return options[rng->NextBelow(options.size())];
}

// `count` values cycling through `options`, in a seeded order: every
// variant gets the same multiset of probabilities, so the exact rationals
// of all variants have the same denominators and cost the same to build.
std::vector<const char*> Spread(const std::vector<const char*>& options,
                                int count, Rng* rng) {
  std::vector<const char*> values;
  for (int i = 0; i < count; ++i) {
    values.push_back(options[static_cast<size_t>(i) % options.size()]);
  }
  for (size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng->NextBelow(i)]);
  }
  return values;
}

// A ring E(i, i+1) on n elements in which every E and every S atom is
// uncertain (the E13 recipe), so no query over E and S has a certain
// witness: u = 2n. A `s_fact_share` of the S rows, at seeded positions,
// are uncertain facts; the others are uncertain absences.
struct RingShape {
  int n;
  double s_fact_share;
  std::vector<const char*> e_err;
  std::vector<const char*> s_fact_err;
  std::vector<const char*> s_absent_err;
};

std::string RingUdb(const RingShape& shape, Rng* rng) {
  int facts = static_cast<int>(std::lround(shape.s_fact_share * shape.n));
  std::vector<const char*> e_err = Spread(shape.e_err, shape.n, rng);
  std::vector<const char*> s_err = Spread(shape.s_fact_err, facts, rng);
  std::vector<const char*> absent =
      Spread(shape.s_absent_err, shape.n - facts, rng);
  s_err.insert(s_err.end(), absent.begin(), absent.end());
  std::vector<int> order(static_cast<size_t>(shape.n));
  for (int i = 0; i < shape.n; ++i) {
    order[static_cast<size_t>(i)] = i;
  }
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->NextBelow(i)]);
  }
  std::string udb = "universe " + std::to_string(shape.n) +
                    "\nrelation E 2\nrelation S 1\n";
  for (int i = 0; i < shape.n; ++i) {
    udb += "fact E " + std::to_string(i) + " " +
           std::to_string((i + 1) % shape.n) + " err=" +
           e_err[static_cast<size_t>(i)] + "\n";
    // Row i takes slot order[i]; the first `facts` slots are facts.
    int j = order[static_cast<size_t>(i)];
    udb += std::string(j < facts ? "fact" : "absent") + " S " +
           std::to_string(i) + " err=" + s_err[static_cast<size_t>(j)] + "\n";
  }
  return udb;
}

// A graph on n elements with `out_degree` certain random out-edges per
// element, no certain S fact and `uncertain` (at least 4) uncertain
// absences, so every witness of a query ending in S goes through an
// uncertain atom. Two cut-off elements get no certain in-edge; both carry
// an uncertain S atom, and one of them is reached by an uncertain E edge
// from an element that has an in-edge. The other S atoms sit on elements
// with an in-edge. The reliability thus depends on the graph, and a plan
// that dropped the E join would count the cut-off atoms and answer
// differently.
std::string ScaleGraphUdb(int n, int out_degree, int uncertain, Rng* rng) {
  std::string udb =
      "universe " + std::to_string(n) + "\nrelation E 2\nrelation S 1\n";
  auto random_element = [&] {
    return static_cast<int>(rng->NextBelow(static_cast<uint64_t>(n)));
  };
  std::set<int> cut;
  while (cut.size() < 2) {
    cut.insert(random_element());
  }
  std::set<std::pair<int, int>> edges;
  std::vector<int> in_degree(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < out_degree; ++d) {
      int j = random_element();
      if (cut.count(j) == 0 && edges.insert({i, j}).second) {
        ++in_degree[static_cast<size_t>(j)];
        udb += "fact E " + std::to_string(i) + " " + std::to_string(j) + "\n";
      }
    }
  }
  const std::vector<const char*> err_options = {"1/8", "1/9", "1/10", "1/12",
                                                "2/15"};
  std::vector<const char*> errs = Spread(err_options, uncertain, rng);
  size_t next = 0;
  int from = random_element();
  while (in_degree[static_cast<size_t>(from)] == 0) {
    from = random_element();
  }
  udb += "absent E " + std::to_string(from) + " " +
         std::to_string(*cut.begin()) + " err=" + errs[next++] + "\n";
  std::set<int> chosen = cut;
  for (int v : cut) {
    udb += "absent S " + std::to_string(v) + " err=" + errs[next++] + "\n";
  }
  while (next < errs.size()) {
    int v = random_element();
    if (in_degree[static_cast<size_t>(v)] > 0 && chosen.insert(v).second) {
      udb += "absent S " + std::to_string(v) + " err=" + errs[next++] + "\n";
    }
  }
  return udb;
}

// `chains` certain chains of `length` elements each, joined into a ring
// by uncertain absent bridge edges: transitive closure changes whenever a
// bridge appears, and is otherwise certain.
std::string ChainsUdb(int chains, int length, Rng* rng) {
  int n = chains * length;
  std::string udb = "universe " + std::to_string(n) + "\nrelation E 2\n";
  std::vector<const char*> bridge_err =
      Spread({"1/3", "2/5", "1/4", "3/7"}, chains, rng);
  for (int c = 0; c < chains; ++c) {
    int first = c * length;
    for (int i = 0; i + 1 < length; ++i) {
      udb += "fact E " + std::to_string(first + i) + " " +
             std::to_string(first + i + 1) + "\n";
    }
    int from = first + static_cast<int>(rng->NextBelow(
                           static_cast<uint64_t>(length)));
    int to = ((c + 1) % chains) * length +
             static_cast<int>(rng->NextBelow(static_cast<uint64_t>(length)));
    udb += "absent E " + std::to_string(from) + " " + std::to_string(to) +
           " err=" + bridge_err[static_cast<size_t>(c)] + "\n";
  }
  return udb;
}

constexpr char kTransitiveClosure[] =
    "T(x, y) :- E(x, y).\nT(x, z) :- T(x, y), E(y, z).\n";

Instance Base(const char* kind, int variant, Api api) {
  Instance instance;
  instance.kind = kind;
  instance.variant = variant;
  instance.api = api;
  return instance;
}

// ---------------------------------------------------------------------------
// exact_enum: Thm 4.2 enumeration, chosen by the engine in automatic mode.

const RingShape kExactRing = {6, 0.3, {"1/4", "1/5", "2/9", "3/10"},
                              {"1/4", "1/5", "1/6"},
                              {"1/3", "2/5", "1/4", "3/8"}};

Instance ExactQuery(const char* kind, int variant, int n, const char* text) {
  Instance in = Base(kind, variant, Api::kQuery);
  Rng rng(VariantSeed(kind, variant));
  RingShape shape = kExactRing;
  shape.n = n;
  in.database = RingUdb(shape, &rng);
  in.text = text;
  in.ref = RefMethod::kEnumerate;
  return in;
}

Instance EeSelfJoin(int v) {
  return ExactQuery("ee.selfjoin", v, 6, "exists x y . E(x, y) & S(x) & S(y)");
}
Instance EeUniversal(int v) {
  return ExactQuery("ee.universal", v, 6,
                    "forall x y . E(x, y) -> S(x) | S(y)");
}
Instance EeFirstOrder(int v) {
  return ExactQuery("ee.fo", v, 6,
                    "forall x . S(x) -> exists y . E(x, y) & !S(y)");
}
Instance EeDatalog(int v) {
  Instance in = ExactQuery("ee.datalog", v, 5, kTransitiveClosure);
  in.api = Api::kDatalog;
  in.predicate = "T";
  return in;
}

// ---------------------------------------------------------------------------
// sample_fptras: rings far past the exact ceiling, (eps, delta) = 0.05.

const RingShape kSampleRing = {12, 0.0, {"1/4", "1/5", "2/9", "3/10"},
                               {"1/4"},
                               {"1/12", "1/15", "1/10", "1/20"}};

Instance SampleQuery(const char* kind, int variant, const char* text) {
  Instance in = Base(kind, variant, Api::kQuery);
  Rng rng(VariantSeed(kind, variant));
  in.database = RingUdb(kSampleRing, &rng);
  in.text = text;
  in.options.epsilon = 0.05;
  in.options.delta = 0.05;
  in.tolerance = 0.05;
  return in;
}

// Safe, so the reference is exact; forced onto the sampling rung.
Instance SfExists(int v) {
  Instance in = SampleQuery("sf.exists", v, "exists x y . E(x, y) & S(x)");
  in.options.force_approximate = true;
  in.ref = RefMethod::kExtensional;
  in.ref_text = in.text;
  return in;
}
// A Boolean query and its negation have the same reliability, so the
// safe dual gives the exact reference.
Instance SfUniversal(int v) {
  Instance in =
      SampleQuery("sf.universal", v, "forall x y . E(x, y) -> !S(y)");
  in.ref = RefMethod::kExtensional;
  in.ref_text = "exists x y . E(x, y) & S(y)";
  return in;
}
Instance SfFirstOrder(int v) {
  return SampleQuery("sf.fo", v,
                     "exists x . S(x) & forall y . E(x, y) -> S(y)");
}
Instance SfDatalog(int v) {
  Instance in = SampleQuery("sf.datalog", v, kTransitiveClosure);
  in.api = Api::kDatalog;
  in.predicate = "T";
  in.options.fixed_samples = 400;
  return in;
}

// A payroll table whose uncertain salaries may read across the 4000
// threshold; the query counts salaries above it.
Instance SfMetafinite(int v) {
  Instance in = Base("sf.metafinite", v, Api::kMetafinite);
  Rng rng(VariantSeed(in.kind, v));
  const int n = 24;
  const std::vector<const char*> keep = {"3/4", "4/5", "5/6", "7/8"};
  std::string mfdb =
      "universe " + std::to_string(n) + "\nfunction salary 1\n";
  for (int i = 0; i < n; ++i) {
    int salary = 2000 + 100 * static_cast<int>(rng.NextBelow(41));
    mfdb += "value salary " + std::to_string(i) + " = " +
            std::to_string(salary) + "\n";
    if (i % 2 == 0) {
      int other = salary > 4000 ? salary - 1500 : salary + 1500;
      qrel::Rational p = qrel::Rational::Parse(Pick(keep, &rng)).value();
      mfdb += "dist salary " + std::to_string(i) + " : " +
              std::to_string(salary) + " @ " + p.ToString() + ", " +
              std::to_string(other) + " @ " + p.Complement().ToString() +
              "\n";
    }
  }
  in.database = mfdb;
  in.mc_samples = 2200;
  in.tolerance = 0.05;
  in.ref = RefMethod::kEnumerate;
  return in;
}

// ---------------------------------------------------------------------------
// scale_join: large n, few uncertain atoms.

Instance ScaleQuery(const char* kind, int variant, int n, int uncertain,
                    const char* text) {
  Instance in = Base(kind, variant, Api::kQuery);
  Rng rng(VariantSeed(kind, variant));
  in.database = ScaleGraphUdb(n, 2, uncertain, &rng);
  in.text = text;
  in.ref = RefMethod::kEnumerate;
  return in;
}

Instance SjSafe(int v) {
  return ScaleQuery("sj.safe", v, 200, 6, "exists x y . E(x, y) & S(y)");
}
Instance SjUnary(int v) {
  return ScaleQuery("sj.unary", v, 160, 6, "exists y . E(x, y) & S(y)");
}
Instance SjUnsafe3(int v) {
  return ScaleQuery("sj.unsafe3", v, 20, 8,
                    "exists x y z . E(x, y) & E(y, z) & S(z)");
}
Instance SjDatalog(int v) {
  Instance in = Base("sj.datalog", v, Api::kDatalog);
  Rng rng(VariantSeed(in.kind, v));
  in.database = ChainsUdb(5, 8, &rng);
  in.text = kTransitiveClosure;
  in.predicate = "T";
  in.ref = RefMethod::kEnumerate;
  return in;
}

// Op sizes are set so the kinds of a workload cost about the same, and
// the weights so that p50 and p95 fall inside one kind's latencies rather
// than on the step between two. In exact_enum, ee.fo sits between the
// Datalog and the self-join/universal costs and holds the middle third of
// the mix, so the median is ee.fo's own median.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"exact_enum",
       {{"ee.selfjoin", 1, EeSelfJoin},
        {"ee.universal", 1, EeUniversal},
        {"ee.fo", 2, EeFirstOrder},
        {"ee.datalog", 2, EeDatalog}}},
      {"sample_fptras",
       {{"sf.exists", 1, SfExists},
        {"sf.universal", 1, SfUniversal},
        {"sf.fo", 1, SfFirstOrder},
        {"sf.datalog", 1, SfDatalog},
        {"sf.metafinite", 1, SfMetafinite}}},
      {"scale_join",
       {{"sj.safe", 1, SjSafe},
        {"sj.unary", 1, SjUnary},
        {"sj.unsafe3", 1, SjUnsafe3},
        {"sj.datalog", 1, SjDatalog}}},
  };
  return workloads;
}

qrel::MTermPtr CountAboveThreshold() {
  return qrel::MCount(
      "y", qrel::MLess(qrel::MConst(qrel::Rational(4000)),
                       qrel::MApply("salary", {qrel::Term::Var("y")})));
}

// "Thm 4.2 ... (4096 worlds)" -> 4096; nullopt when the method names no
// work count.
std::optional<uint64_t> MethodWork(const std::string& method) {
  size_t open = method.rfind('(');
  if (open == std::string::npos) {
    return std::nullopt;
  }
  const char* start = method.c_str() + open + 1;
  char* end = nullptr;
  unsigned long long value = std::strtoull(start, &end, 10);
  if (end == start) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(value);
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (name == workload.name) {
      return &workload;
    }
  }
  return nullptr;
}

qrel::StatusOr<Prepared> Prepare(Instance input) {
  Prepared p;
  if (input.api == Api::kMetafinite) {
    qrel::StatusOr<qrel::UnreliableFunctionalDatabase> db =
        qrel::ParseMfdb(input.database);
    if (!db.ok()) {
      return db.status();
    }
    p.functional = std::make_unique<qrel::UnreliableFunctionalDatabase>(
        std::move(db).value());
    p.term = CountAboveThreshold();
    QREL_RETURN_IF_ERROR(
        qrel::ValidateTerm(p.term, p.functional->vocabulary()));
    p.input = std::move(input);
    return p;
  }
  qrel::StatusOr<qrel::UnreliableDatabase> db = qrel::ParseUdb(input.database);
  if (!db.ok()) {
    return db.status();
  }
  p.engine = std::make_unique<qrel::ReliabilityEngine>(std::move(db).value());
  const qrel::Vocabulary& vocabulary = p.engine->database().vocabulary();
  if (input.api == Api::kQuery) {
    qrel::StatusOr<qrel::FormulaPtr> formula = qrel::ParseFormula(input.text);
    if (!formula.ok()) {
      return formula.status();
    }
    p.formula = *formula;
    qrel::StatusOr<qrel::CompiledQuery> compiled =
        qrel::CompiledQuery::Compile(p.formula, vocabulary);
    if (!compiled.ok()) {
      return compiled.status();
    }
    p.compiled.emplace(std::move(compiled).value());
  } else {
    qrel::StatusOr<qrel::DatalogProgram> program =
        qrel::ParseDatalogProgram(input.text);
    if (!program.ok()) {
      return program.status();
    }
    qrel::StatusOr<qrel::CompiledDatalog> compiled =
        qrel::CompiledDatalog::Compile(std::move(program).value(), vocabulary);
    if (!compiled.ok()) {
      return compiled.status();
    }
    p.datalog.emplace(std::move(compiled).value());
  }
  p.input = std::move(input);
  return p;
}

Outcome RunOp(const Prepared& p, uint64_t seed) {
  Outcome out;
  qrel::EngineOptions options = p.input.options;
  options.seed = seed;
  if (p.input.api == Api::kMetafinite) {
    qrel::StatusOr<qrel::FunctionalMcResult> mc = qrel::McFunctionalReliability(
        p.term, *p.functional, p.input.mc_samples, seed);
    out.status = mc.status();
    if (mc.ok()) {
      out.reliability = mc->estimate;
      out.samples = mc->samples;
      out.method = "metafinite Monte Carlo";
    }
    return out;
  }
  qrel::StatusOr<qrel::EngineReport> report =
      p.input.api == Api::kQuery
          ? p.engine->Run(p.input.text, options)
          : p.engine->RunDatalog(p.input.text, p.input.predicate, options);
  out.status = report.status();
  if (report.ok()) {
    out.exact = report->is_exact;
    out.reliability = report->reliability;
    if (report->exact_reliability.has_value()) {
      out.exact_value = report->exact_reliability->ToString();
    }
    out.method = report->method;
    out.samples = report->samples;
  }
  return out;
}

std::string CheckOutcome(const Prepared& p, const Outcome& o) {
  if (!o.status.ok()) {
    return "status " + o.status.ToString();
  }
  if (!(o.reliability > 0.0 && o.reliability < 1.0)) {
    return "degenerate answer R=" + std::to_string(o.reliability);
  }
  if (o.exact) {
    if (o.exact_value.empty()) {
      return "exact answer without a rational value";
    }
    if (!p.reference.empty() && o.exact_value != p.reference) {
      return "exact R " + o.exact_value + " != reference " + p.reference;
    }
    std::optional<uint64_t> work = MethodWork(o.method);
    if (work.has_value() && *work <= 1) {
      return "exact answer from " + std::to_string(*work) +
             " units of work (" + o.method + ")";
    }
    return "";
  }
  if (o.samples == 0) {
    return "sampled answer drew no samples (" + o.method + ")";
  }
  if (!p.reference.empty()) {
    double reference = qrel::Rational::Parse(p.reference)->ToDouble();
    if (std::fabs(o.reliability - reference) > p.input.tolerance) {
      return "estimate " + std::to_string(o.reliability) + " is more than " +
             std::to_string(p.input.tolerance) + " from reference " +
             std::to_string(reference);
    }
  }
  return "";
}

std::string ServeDatabase(const std::string& pool, int variant) {
  Rng rng(VariantSeed(pool, variant));
  RingShape shape = kExactRing;
  shape.n = 5;
  return RingUdb(shape, &rng);
}

const std::vector<std::string>& ServeQueries() {
  static const std::vector<std::string> queries = [] {
    std::vector<std::string> texts;
    for (int c = 0; c < 5; ++c) {
      std::string e = "#" + std::to_string(c);
      texts.push_back("exists y z . E(" + e + ", y) & E(y, z) & S(z)");
      texts.push_back("forall y . E(" + e + ", y) -> S(y)");
      texts.push_back("exists x . S(x) & E(x, " + e + ") & S(" + e + ")");
    }
    return texts;
  }();
  return queries;
}

std::string Rung(const std::string& method) {
  return method.substr(0, method.find(" ("));
}

std::string RefKey(const std::string& kind, int variant, int qid) {
  return kind + " " + std::to_string(variant) + " " + std::to_string(qid);
}

bool LoadRefs(const std::string& path, RefTable* table) {
  std::ifstream file(path);
  if (!file) {
    return false;
  }
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string kind;
    int variant = 0;
    int qid = 0;
    std::string value;
    if (!(fields >> kind >> variant >> qid >> value)) {
      return false;
    }
    (*table)[RefKey(kind, variant, qid)] = value;
  }
  return true;
}

qrel::StatusOr<std::optional<std::string>> ComputeReference(
    const Instance& input) {
  if (input.ref == RefMethod::kNone) {
    return std::optional<std::string>();
  }
  if (input.api == Api::kMetafinite) {
    qrel::StatusOr<qrel::UnreliableFunctionalDatabase> db =
        qrel::ParseMfdb(input.database);
    if (!db.ok()) {
      return db.status();
    }
    qrel::StatusOr<qrel::FunctionalReliabilityReport> exact =
        qrel::ExactFunctionalReliability(CountAboveThreshold(), *db);
    if (!exact.ok()) {
      return exact.status();
    }
    return std::optional<std::string>(exact->reliability.ToString());
  }
  qrel::StatusOr<qrel::UnreliableDatabase> db = qrel::ParseUdb(input.database);
  if (!db.ok()) {
    return db.status();
  }
  qrel::StatusOr<qrel::ReliabilityReport> exact =
      qrel::Status::Internal("no reference method");
  if (input.api == Api::kDatalog) {
    qrel::StatusOr<qrel::DatalogProgram> program =
        qrel::ParseDatalogProgram(input.text);
    if (!program.ok()) {
      return program.status();
    }
    qrel::StatusOr<qrel::CompiledDatalog> compiled =
        qrel::CompiledDatalog::Compile(std::move(program).value(),
                                       db->vocabulary());
    if (!compiled.ok()) {
      return compiled.status();
    }
    exact = qrel::ExactDatalogReliability(*compiled, input.predicate, *db);
  } else {
    const std::string& text =
        input.ref == RefMethod::kExtensional ? input.ref_text : input.text;
    qrel::StatusOr<qrel::FormulaPtr> formula = qrel::ParseFormula(text);
    if (!formula.ok()) {
      return formula.status();
    }
    exact = input.ref == RefMethod::kExtensional
                ? qrel::ExtensionalReliability(*formula, *db)
                : qrel::ExactReliability(*formula, *db);
  }
  if (!exact.ok()) {
    return exact.status();
  }
  return std::optional<std::string>(exact->reliability.ToString());
}

}  // namespace perfbench
