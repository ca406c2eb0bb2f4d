#include <memory>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "qrel/datalog/eval.h"
#include "qrel/datalog/program.h"
#include "qrel/datalog/reliability.h"
#include "qrel/logic/parser.h"
#include "qrel/util/rng.h"

namespace qrel {
namespace {

constexpr char kReachability[] = R"(
  Path(x, y) :- E(x, y).
  Path(x, z) :- Path(x, y), E(y, z).
)";

// Path graph 0 -> 1 -> 2 -> 3 over universe 4.
Structure PathGraph() {
  auto vocabulary = std::make_shared<Vocabulary>();
  vocabulary->AddRelation("E", 2);
  vocabulary->AddRelation("Node", 1);
  Structure structure(vocabulary, 4);
  structure.AddFact(0, {0, 1});
  structure.AddFact(0, {1, 2});
  structure.AddFact(0, {2, 3});
  for (Element i = 0; i < 4; ++i) {
    structure.AddFact(1, {i});
  }
  return structure;
}

TEST(DatalogParserTest, ParsesRulesAndFacts) {
  StatusOr<DatalogProgram> program = ParseDatalogProgram(kReachability);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_EQ(program->rules.size(), 2u);
  EXPECT_EQ(program->rules[0].head.relation, "Path");
  EXPECT_EQ(program->rules[0].body.size(), 1u);
  EXPECT_EQ(program->rules[1].body.size(), 2u);
  EXPECT_EQ(program->IdbPredicates(),
            (std::vector<std::string>{"Path"}));
}

TEST(DatalogParserTest, ParsesNegationAndConstants) {
  StatusOr<DatalogProgram> program = ParseDatalogProgram(
      "Good(x) :- Node(x), !Bad(x).\nBad(#2) .\nBad(3).");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_FALSE(program->rules[0].body[1].positive);
  EXPECT_EQ(program->rules[1].head.args[0].constant, 2);
  EXPECT_EQ(program->rules[2].head.args[0].constant, 3);
}

TEST(DatalogParserTest, RoundTripsThroughToString) {
  DatalogProgram program = *ParseDatalogProgram(kReachability);
  DatalogProgram reparsed = *ParseDatalogProgram(program.ToString());
  EXPECT_EQ(program.ToString(), reparsed.ToString());
}

TEST(DatalogParserTest, RejectsSyntaxErrors) {
  EXPECT_FALSE(ParseDatalogProgram("").ok());
  EXPECT_FALSE(ParseDatalogProgram("Path(x, y)").ok());          // no '.'
  EXPECT_FALSE(ParseDatalogProgram("Path(x, y :- E(x, y).").ok());
  EXPECT_FALSE(ParseDatalogProgram("Path(x,) :- E(x, y).").ok());
  EXPECT_FALSE(ParseDatalogProgram(":- E(x, y).").ok());
}

TEST(DatalogCompileTest, RejectsUnknownEdbAndArityMismatch) {
  Structure db = PathGraph();
  EXPECT_FALSE(CompiledDatalog::Compile(
                   *ParseDatalogProgram("P(x) :- Zap(x)."), db.vocabulary())
                   .ok());
  EXPECT_FALSE(CompiledDatalog::Compile(
                   *ParseDatalogProgram("P(x) :- E(x)."), db.vocabulary())
                   .ok());
  // Inconsistent IDB arity.
  EXPECT_FALSE(
      CompiledDatalog::Compile(
          *ParseDatalogProgram("P(x) :- E(x, y).\nP(x, y) :- E(x, y)."),
          db.vocabulary())
          .ok());
  // IDB/EDB name clash.
  EXPECT_FALSE(CompiledDatalog::Compile(
                   *ParseDatalogProgram("E(x, y) :- E(y, x)."),
                   db.vocabulary())
                   .ok());
}

TEST(DatalogCompileTest, RejectsUnsafeRules) {
  Structure db = PathGraph();
  // Head variable not bound positively.
  EXPECT_FALSE(CompiledDatalog::Compile(
                   *ParseDatalogProgram("P(x, y) :- E(x, x)."),
                   db.vocabulary())
                   .ok());
  // Negated variable not bound positively.
  EXPECT_FALSE(CompiledDatalog::Compile(
                   *ParseDatalogProgram("P(x) :- Node(x), !E(x, y)."),
                   db.vocabulary())
                   .ok());
}

TEST(DatalogCompileTest, RejectsUnstratifiedNegation) {
  Structure db = PathGraph();
  EXPECT_FALSE(CompiledDatalog::Compile(
                   *ParseDatalogProgram("P(x) :- Node(x), !Q(x).\n"
                                        "Q(x) :- Node(x), !P(x)."),
                   db.vocabulary())
                   .ok());
}

TEST(DatalogEvalTest, TransitiveClosure) {
  Structure db = PathGraph();
  CompiledDatalog program =
      std::move(CompiledDatalog::Compile(*ParseDatalogProgram(kReachability),
                                         db.vocabulary()))
          .value();
  std::set<Tuple> path = *program.EvalPredicate(db, "Path");
  std::set<Tuple> expected = {{0, 1}, {0, 2}, {0, 3}, {1, 2},
                              {1, 3}, {2, 3}};
  EXPECT_EQ(path, expected);
}

TEST(DatalogEvalTest, StratifiedNegationComplement) {
  Structure db = PathGraph();
  CompiledDatalog program = std::move(
      CompiledDatalog::Compile(
          *ParseDatalogProgram(
              "Path(x, y) :- E(x, y).\n"
              "Path(x, z) :- Path(x, y), E(y, z).\n"
              "Unreached(x, y) :- Node(x), Node(y), !Path(x, y)."),
          db.vocabulary()))
          .value();
  std::set<Tuple> unreached = *program.EvalPredicate(db, "Unreached");
  // 16 pairs minus 6 reachable ones = 10.
  EXPECT_EQ(unreached.size(), 10u);
  EXPECT_TRUE(unreached.count({3, 0}));
  EXPECT_TRUE(unreached.count({0, 0}));
  EXPECT_FALSE(unreached.count({0, 3}));
}

TEST(DatalogEvalTest, FactsAndConstants) {
  Structure db = PathGraph();
  CompiledDatalog program = std::move(
      CompiledDatalog::Compile(
          *ParseDatalogProgram("Special(#2).\n"
                               "Marked(x) :- E(#0, x).\n"
                               "Both(x) :- Special(x), Marked(x)."),
          db.vocabulary()))
          .value();
  EXPECT_EQ(*program.EvalPredicate(db, "Special"),
            (std::set<Tuple>{{2}}));
  EXPECT_EQ(*program.EvalPredicate(db, "Marked"),
            (std::set<Tuple>{{1}}));
  EXPECT_TRUE(program.EvalPredicate(db, "Both")->empty());
}

TEST(DatalogEvalTest, EdbPredicateQueriesWork) {
  Structure db = PathGraph();
  CompiledDatalog program =
      std::move(CompiledDatalog::Compile(*ParseDatalogProgram(kReachability),
                                         db.vocabulary()))
          .value();
  std::set<Tuple> edges = *program.EvalPredicate(db, "E");
  EXPECT_EQ(edges.size(), 3u);
  EXPECT_FALSE(program.EvalPredicate(db, "Nope").ok());
}

TEST(DatalogEvalTest, SameVariableTwiceInLiteral) {
  Structure db = PathGraph();
  db.AddFact(0, {2, 2});  // a self-loop
  CompiledDatalog program = std::move(
      CompiledDatalog::Compile(*ParseDatalogProgram("Loop(x) :- E(x, x)."),
                               db.vocabulary()))
          .value();
  EXPECT_EQ(*program.EvalPredicate(db, "Loop"), (std::set<Tuple>{{2}}));
}

UnreliableDatabase UnreliablePathGraph() {
  UnreliableDatabase db(PathGraph());
  // The edge 2 -> 3 may be wrong; a phantom edge 3 -> 0 may exist.
  db.SetErrorProbability(GroundAtom{0, {2, 3}}, Rational(1, 4));
  db.SetErrorProbability(GroundAtom{0, {3, 0}}, Rational(1, 3));
  return db;
}

TEST(DatalogReliabilityTest, ExactReachabilityHandChecked) {
  UnreliableDatabase db = UnreliablePathGraph();
  CompiledDatalog program =
      std::move(CompiledDatalog::Compile(*ParseDatalogProgram(kReachability),
                                         db.vocabulary()))
          .value();
  ReliabilityReport report =
      *ExactDatalogReliability(program, "Path", db);
  EXPECT_EQ(report.arity, 2);
  EXPECT_EQ(report.work_units, 4u);
  // Worlds: (e23 kept?, e30 exists?).
  //  kept,   no   : Path as observed                  -> 0 diffs, p = 1/2
  //  kept,   yes  : full cycle: Path = all 16 pairs   -> 10 diffs, p = 1/4
  //  dropped,no   : lose (2,3),(1,3),(0,3)            -> 3 diffs,  p = 1/6
  //  dropped,yes  : edges 01,12,30: Path from 3: {0,1,2}; from 0: {1,2};
  //                 from 1: {2}; from 2: {} = 6 pairs; observed has 6;
  //                 diff = |{03,13,23} ∪ {30,31,32}| = 6 -> p = 1/12
  Rational expected = Rational(1, 4) * Rational(10) +
                      Rational(1, 6) * Rational(3) +
                      Rational(1, 12) * Rational(6);
  EXPECT_EQ(report.expected_error, expected);
  EXPECT_EQ(report.reliability, Rational(1) - expected / Rational(16));
}

TEST(DatalogReliabilityTest, CertainDatabasePerfectlyReliable) {
  UnreliableDatabase db(PathGraph());
  CompiledDatalog program =
      std::move(CompiledDatalog::Compile(*ParseDatalogProgram(kReachability),
                                         db.vocabulary()))
          .value();
  ReliabilityReport report =
      *ExactDatalogReliability(program, "Path", db);
  EXPECT_TRUE(report.reliability.IsOne());
}

TEST(DatalogReliabilityTest, PaddedEstimatorMatchesExact) {
  UnreliableDatabase db = UnreliablePathGraph();
  CompiledDatalog program =
      std::move(CompiledDatalog::Compile(*ParseDatalogProgram(kReachability),
                                         db.vocabulary()))
          .value();
  double exact =
      ExactDatalogReliability(program, "Path", db)->reliability.ToDouble();
  ApproxOptions options;
  options.seed = 7;
  options.fixed_samples = 60000;
  ApproxResult estimate =
      *PaddedDatalogReliability(program, "Path", db, options);
  EXPECT_NEAR(estimate.estimate, exact, 0.03);
}

// Both front ends run the one Thm 5.12 estimator, so a first-order query
// and an equivalent Datalog predicate draw the same Rd, Rc and worlds and
// give the same result to the last bit; only the method string differs.
TEST(DatalogReliabilityTest, PaddedMatchesTheEquivalentFirstOrderQuery) {
  UnreliableDatabase db = UnreliablePathGraph();
  db.SetErrorProbability(GroundAtom{1, {1}}, Rational(1, 2));  // Node(1)
  struct Pair {
    const char* formula;
    const char* program;
    std::optional<uint64_t> fixed_samples;
  };
  const Pair kPairs[] = {
      {"exists y . Node(x) & E(x, y)", "Q(x) :- Node(x), E(x, y).",
       std::nullopt},
      {"E(x, y) | (exists z . E(x, z) & E(z, y))",
       "Q(x, y) :- E(x, y).\nQ(x, y) :- E(x, z), E(z, y).", 3000},
  };
  for (const Pair& pair : kPairs) {
    SCOPED_TRACE(pair.formula);
    CompiledDatalog program =
        std::move(CompiledDatalog::Compile(*ParseDatalogProgram(pair.program),
                                           db.vocabulary()))
            .value();
    ApproxOptions options;
    options.seed = 31;
    options.epsilon = 0.3;
    options.delta = 0.3;
    options.fixed_samples = pair.fixed_samples;
    StatusOr<ApproxResult> first_order =
        PaddedReliabilityApprox(*ParseFormula(pair.formula), db, options);
    ASSERT_TRUE(first_order.ok()) << first_order.status().ToString();
    StatusOr<ApproxResult> datalog =
        PaddedDatalogReliability(program, "Q", db, options);
    ASSERT_TRUE(datalog.ok()) << datalog.status().ToString();
    EXPECT_EQ(datalog->estimate, first_order->estimate);
    EXPECT_EQ(datalog->samples, first_order->samples);
    EXPECT_EQ(datalog->achieved_epsilon, first_order->achieved_epsilon);
    EXPECT_EQ(datalog->truncated, first_order->truncated);
    EXPECT_GT(datalog->samples, 0u);
    EXPECT_GT(datalog->estimate, 0.0);
    EXPECT_LT(datalog->estimate, 1.0);
  }
}

// A budget trip inside a world's fixpoint ends the run with the samples
// completed before it: the truncated result equals a run planned at
// exactly that many samples, so the interrupted sample's Rc draws leave no
// trace in the hit counts.
TEST(DatalogReliabilityTest, PaddedTruncationKeepsExactlyTheCompletedSamples) {
  UnreliableDatabase db = UnreliablePathGraph();
  CompiledDatalog program =
      std::move(CompiledDatalog::Compile(*ParseDatalogProgram(kReachability),
                                         db.vocabulary()))
          .value();
  ApproxOptions options;
  options.seed = 5;
  options.fixed_samples = 400;
  options.allow_truncation = true;
  for (uint64_t budget = 300; budget < 340; ++budget) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    RunContext ctx = RunContext::WithWorkBudget(budget);
    options.run_context = &ctx;
    StatusOr<ApproxResult> truncated =
        PaddedDatalogReliability(program, "Path", db, options);
    ASSERT_TRUE(truncated.ok()) << truncated.status().ToString();
    ASSERT_TRUE(truncated->truncated);
    ASSERT_GT(truncated->samples, 0u);

    ApproxOptions prefix = options;
    prefix.run_context = nullptr;
    prefix.fixed_samples = truncated->samples;
    StatusOr<ApproxResult> planned =
        PaddedDatalogReliability(program, "Path", db, prefix);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    EXPECT_EQ(truncated->estimate, planned->estimate);
    EXPECT_EQ(truncated->achieved_epsilon, planned->achieved_epsilon);
  }
}

TEST(DatalogReliabilityTest, NegationStratumReliability) {
  UnreliableDatabase db = UnreliablePathGraph();
  CompiledDatalog program = std::move(
      CompiledDatalog::Compile(
          *ParseDatalogProgram(
              "Path(x, y) :- E(x, y).\n"
              "Path(x, z) :- Path(x, y), E(y, z).\n"
              "Unreached(x, y) :- Node(x), Node(y), !Path(x, y)."),
          db.vocabulary()))
          .value();
  // Unreached is the complement of Path over Node×Node, so its expected
  // error equals Path's.
  ReliabilityReport path = *ExactDatalogReliability(program, "Path", db);
  ReliabilityReport unreached =
      *ExactDatalogReliability(program, "Unreached", db);
  EXPECT_EQ(path.expected_error, unreached.expected_error);
}

TEST(DatalogReliabilityTest, RejectsUnknownPredicate) {
  UnreliableDatabase db = UnreliablePathGraph();
  CompiledDatalog program =
      std::move(CompiledDatalog::Compile(*ParseDatalogProgram(kReachability),
                                         db.vocabulary()))
          .value();
  EXPECT_FALSE(ExactDatalogReliability(program, "Nope", db).ok());
  EXPECT_FALSE(
      PaddedDatalogReliability(program, "Nope", db, ApproxOptions()).ok());
}

}  // namespace
}  // namespace qrel

namespace qrel {
namespace {

TEST(SemiNaiveTest, MatchesNaiveOnLinearRecursion) {
  Structure db = PathGraph();
  CompiledDatalog program =
      std::move(CompiledDatalog::Compile(*ParseDatalogProgram(kReachability),
                                         db.vocabulary()))
          .value();
  EXPECT_EQ(program.Eval(db), program.EvalNaive(db));
}

TEST(SemiNaiveTest, MatchesNaiveOnNonlinearRecursion) {
  // Nonlinear transitive closure: two same-stratum IDB literals per rule.
  Structure db = PathGraph();
  db.AddFact(0, {3, 0});  // close the cycle
  CompiledDatalog program = std::move(
      CompiledDatalog::Compile(
          *ParseDatalogProgram("Path(x, y) :- E(x, y).\n"
                               "Path(x, z) :- Path(x, y), Path(y, z)."),
          db.vocabulary()))
          .value();
  DatalogResult semi = program.Eval(db);
  DatalogResult naive = program.EvalNaive(db);
  EXPECT_EQ(semi, naive);
  EXPECT_EQ(semi.at("Path").size(), 16u);  // full cycle: all pairs
}

TEST(SemiNaiveTest, MatchesNaiveWithNegationStrata) {
  Structure db = PathGraph();
  CompiledDatalog program = std::move(
      CompiledDatalog::Compile(
          *ParseDatalogProgram(
              "Path(x, y) :- E(x, y).\n"
              "Path(x, z) :- Path(x, y), E(y, z).\n"
              "Unreached(x, y) :- Node(x), Node(y), !Path(x, y).\n"
              "Sink(x) :- Node(x), !HasOut(x).\n"
              "HasOut(x) :- E(x, y)."),
          db.vocabulary()))
          .value();
  EXPECT_EQ(program.Eval(db), program.EvalNaive(db));
  EXPECT_EQ(program.Eval(db).at("Sink"), (std::set<Tuple>{{3}}));
}

TEST(SemiNaiveTest, MatchesNaiveOnRandomGraphs) {
  Rng rng(808);
  for (int round = 0; round < 8; ++round) {
    auto vocabulary = std::make_shared<Vocabulary>();
    int e = vocabulary->AddRelation("E", 2);
    vocabulary->AddRelation("Node", 1);
    int n = 3 + static_cast<int>(rng.NextBelow(5));
    Structure db(vocabulary, n);
    for (Element i = 0; i < n; ++i) {
      db.AddFact(1, {i});
      for (Element j = 0; j < n; ++j) {
        if (rng.NextBernoulli(0.3)) {
          db.AddFact(e, {i, j});
        }
      }
    }
    CompiledDatalog program = std::move(
        CompiledDatalog::Compile(
            *ParseDatalogProgram(
                "Path(x, y) :- E(x, y).\n"
                "Path(x, z) :- Path(x, y), E(y, z).\n"
                "Sym(x, y) :- Path(x, y), Path(y, x).\n"
                "Unreached(x, y) :- Node(x), Node(y), !Path(x, y)."),
            db.vocabulary()))
            .value();
    EXPECT_EQ(program.Eval(db), program.EvalNaive(db)) << "n=" << n;
  }
}

}  // namespace
}  // namespace qrel

namespace qrel {
namespace {

TEST(DatalogEvalTest, MultiStratumChain) {
  // Three strata: Path (0), NoPath (1), Island (2).
  Structure db = PathGraph();
  CompiledDatalog program = std::move(
      CompiledDatalog::Compile(
          *ParseDatalogProgram(
              "Path(x, y) :- E(x, y).\n"
              "Path(x, z) :- Path(x, y), E(y, z).\n"
              "NoPath(x, y) :- Node(x), Node(y), !Path(x, y).\n"
              "Island(x) :- Node(x), NoPath(x, x), !Reaches(x).\n"
              "Reaches(x) :- Path(x, y)."),
          db.vocabulary()))
          .value();
  // Every node of the chain 0->1->2->3 has NoPath(x,x); only 3 has no
  // outgoing path.
  EXPECT_EQ(*program.EvalPredicate(db, "Island"), (std::set<Tuple>{{3}}));
  EXPECT_EQ(program.Eval(db), program.EvalNaive(db));
}

TEST(DatalogEvalTest, ConstantsInNegatedLiterals) {
  Structure db = PathGraph();
  CompiledDatalog program = std::move(
      CompiledDatalog::Compile(
          *ParseDatalogProgram("Ok(x) :- Node(x), !E(x, #3)."),
          db.vocabulary()))
          .value();
  // Only node 2 has an edge to 3.
  EXPECT_EQ(*program.EvalPredicate(db, "Ok"),
            (std::set<Tuple>{{0}, {1}, {3}}));
}

TEST(DatalogEvalTest, RepeatedConstantHead) {
  Structure db = PathGraph();
  CompiledDatalog program = std::move(
      CompiledDatalog::Compile(
          *ParseDatalogProgram("Pair(#1, #2).\nPair(x, x) :- Node(x)."),
          db.vocabulary()))
          .value();
  std::set<Tuple> pairs = *program.EvalPredicate(db, "Pair");
  EXPECT_EQ(pairs.size(), 5u);
  EXPECT_TRUE(pairs.count({1, 2}));
  EXPECT_TRUE(pairs.count({0, 0}));
}

}  // namespace
}  // namespace qrel
