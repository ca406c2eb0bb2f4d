#include "qrel/propositional/naive_mc.h"

#include "qrel/util/governed_loop.h"

namespace qrel {

StatusOr<NaiveMcResult> NaiveMcProbability(
    const Dnf& dnf, const std::vector<Rational>& prob_true, uint64_t samples,
    uint64_t seed, RunContext* ctx, bool allow_truncation) {
  if (static_cast<int>(prob_true.size()) != dnf.variable_count()) {
    return Status::InvalidArgument(
        "probability vector size does not match variable count");
  }
  if (samples == 0) {
    return Status::InvalidArgument("sample count must be positive");
  }
  for (const Rational& p : prob_true) {
    if (!p.IsProbability()) {
      return Status::InvalidArgument("variable probability outside [0, 1]");
    }
  }
  Fingerprint fingerprint;
  fingerprint.Mix("propositional.naive_mc").Mix(seed).Mix(samples);
  MixDnfContent(dnf, prob_true, &fingerprint);
  GovernedLoop loop(ctx, {.kind = "propositional.naive_mc.v1",
                          .fingerprint = fingerprint.value(),
                          .end = samples,
                          .fault_site = "propositional.naive_mc.sample",
                          .allow_truncation = allow_truncation});

  Rng rng(seed);
  NaiveMcResult result;
  // Payload: samples drawn, hits, the RNG.
  QREL_RETURN_IF_ERROR(loop.Resume([&](SnapshotReader& r, uint64_t* drawn) {
    QREL_RETURN_IF_ERROR(r.U64(drawn));
    QREL_RETURN_IF_ERROR(r.U64(&result.hits));
    return r.RngState(&rng);
  }));
  QREL_RETURN_IF_ERROR(loop.Run(
      [&](SnapshotWriter& w, uint64_t drawn) {
        w.U64(drawn);
        w.U64(result.hits);
        w.RngState(rng);
      },
      [&](uint64_t) {
        if (dnf.Eval(SampleAssignment(prob_true, &rng))) {
          ++result.hits;
        }
        return Status::Ok();
      }));
  result.samples = loop.next();
  result.truncated = loop.truncated();
  result.estimate =
      static_cast<double>(result.hits) / static_cast<double>(result.samples);
  return result;
}

}  // namespace qrel
