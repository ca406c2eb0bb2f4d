// The benchmark's engine workloads: generated inputs, the op that runs
// them through the public entry points, the per-op correctness checks,
// and the layer replay of the traced run.
//
// Every workload is a fixed mix of op kinds. Each kind has a pool of
// kPoolSize generated variants (deterministic in the variant index), and
// perfbench/refs/ stores an exact reference value for every variant that
// has one. A run's seed picks kRunVariants of the pool, the order they
// are visited in and the sampling seed of every op, so the same seed
// gives the same inputs and different seeds run different inputs.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qrel/datalog/eval.h"
#include "qrel/engine/engine.h"
#include "qrel/logic/eval.h"
#include "qrel/metafinite/functional_database.h"
#include "qrel/metafinite/term.h"

namespace perfbench {

inline constexpr int kPoolSize = 256;
// Half the pool, so a run's mean cost varies little between seeds while
// two seeds still run different inputs.
inline constexpr int kRunVariants = 128;
// Variants of each kind the traced run replays layer by layer.
inline constexpr size_t kReplayVariants = 32;

enum class Api { kQuery, kDatalog, kMetafinite };

// How the stored reference of a variant is computed (write-refs mode).
enum class RefMethod {
  kNone,         // not computable at this size: the answer is range-checked
  kEnumerate,    // Thm 4.2 world enumeration (value worlds for metafinite)
  kExtensional,  // safe-plan evaluation of `ref_text`
};

// One generated input: everything the engine receives for one op.
struct Instance {
  std::string kind;
  int variant = 0;
  Api api = Api::kQuery;
  std::string database;   // .udb text (.mfdb for kMetafinite)
  std::string text;       // query text or Datalog program
  std::string predicate;  // Datalog query predicate
  qrel::EngineOptions options;
  uint64_t mc_samples = 0;  // kMetafinite sample count
  // Largest allowed |estimate - reference| of a sampled answer: the
  // requested epsilon of the theorem-derived runs.
  double tolerance = 0.0;
  RefMethod ref = RefMethod::kNone;
  std::string ref_text;  // kExtensional: the safe query whose R is the reference
};

struct KindSpec {
  const char* name;
  int weight;  // ops of this kind per mix cycle
  Instance (*generate)(int variant);
};

struct Workload {
  const char* name;
  std::vector<KindSpec> kinds;
};

// The engine workloads (exact_enum, sample_fptras, scale_join); nullptr
// for any other name.
const Workload* FindWorkload(const std::string& name);

// An Instance parsed and compiled during set-up.
struct Prepared {
  Instance input;
  std::unique_ptr<qrel::ReliabilityEngine> engine;  // kQuery / kDatalog
  qrel::FormulaPtr formula;                         // kQuery
  std::optional<qrel::CompiledQuery> compiled;      // kQuery
  std::optional<qrel::CompiledDatalog> datalog;     // kDatalog
  std::unique_ptr<qrel::UnreliableFunctionalDatabase> functional;
  qrel::MTermPtr term;    // kMetafinite
  std::string reference;  // exact rational text; empty when none
};

qrel::StatusOr<Prepared> Prepare(Instance input);

struct Outcome {
  qrel::Status status;
  bool exact = false;
  double reliability = 0.0;
  std::string exact_value;
  std::string method;
  uint64_t samples = 0;
};

// One op through the public entry point its kind is named after.
Outcome RunOp(const Prepared& prepared, uint64_t seed);

// Empty when the outcome is correct and non-degenerate, else the reason.
std::string CheckOutcome(const Prepared& prepared, const Outcome& outcome);

// The rung of a method string: its text before the first " (".
std::string Rung(const std::string& method);

// Reference table: "<kind> <variant> <qid>" -> value text.
using RefTable = std::map<std::string, std::string>;
std::string RefKey(const std::string& kind, int variant, int qid);
bool LoadRefs(const std::string& path, RefTable* table);
// The exact reference of `input` (kNone: nullopt).
qrel::StatusOr<std::optional<std::string>> ComputeReference(
    const Instance& input);

// serve_mix inputs: a catalog database of pool `pool` ("serve.hot" or
// "serve.cold"), and the query texts every database is asked (qid =
// index; each is answered exactly by the engine).
std::string ServeDatabase(const std::string& pool, int variant);
const std::vector<std::string>& ServeQueries();

// Traced run: re-executes the op's work through each layer's own public
// functions under spans, adding work counts to `counts`.
void ReplayLayers(const Prepared& prepared, const Outcome& outcome,
                  uint64_t seed, std::map<std::string, double>* counts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
