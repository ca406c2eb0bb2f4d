#include "qrel/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

#include "qrel/util/fault_injection.h"
#include "qrel/util/snapshot.h"
#include "qrel/util/vfs.h"

namespace qrel {

namespace {

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Mixes an optional into a fingerprint unambiguously (presence bit first,
// so "unset" can never collide with a real value).
void MixOptional(Fingerprint* fp, const std::optional<uint64_t>& value) {
  fp->Mix(value.has_value() ? uint64_t{1} : uint64_t{0});
  fp->Mix(value.value_or(0));
}

// Sends every byte or reports failure; SIGPIPE is suppressed so a client
// that disappeared mid-write surfaces as an error, not a signal.
bool WriteAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

constexpr const char* kDefaultTenant = "default";

constexpr const char* kManifestFileName = "catalog.manifest";

// True when `name` ends with ".tmp.<pid>.<seq>" (WriteSnapshotFile's
// per-attempt-unique in-progress temp files) or the legacy ".tmp.<pid>"
// shape. *pid gets the writer's pid.
bool ParseTempFileName(const std::string& name, long* pid) {
  size_t marker = name.rfind(".tmp.");
  if (marker == std::string::npos) {
    return false;
  }
  std::string_view rest = std::string_view(name).substr(marker + 5);
  size_t dot = rest.find('.');
  std::string_view pid_digits =
      dot == std::string_view::npos ? rest : rest.substr(0, dot);
  if (dot != std::string_view::npos) {
    std::string_view seq = rest.substr(dot + 1);
    if (seq.empty() || seq.size() > 20) {
      return false;
    }
    for (char c : seq) {
      if (c < '0' || c > '9') {
        return false;
      }
    }
  }
  if (pid_digits.empty() || pid_digits.size() > 10) {
    return false;
  }
  // Accumulate unsigned: ten digits can exceed a 32-bit long, and signed
  // overflow is UB before any range check could run.
  uint64_t value = 0;
  for (char c : pid_digits) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  // pid_t is at least 32-bit signed everywhere this runs; a larger value
  // cannot be a live pid and was not written by WriteSnapshotFile, so the
  // file is not ours to reap (probing a truncated pid could report an
  // unrelated live process as the writer).
  if (value > uint64_t{0x7fffffff}) {
    return false;
  }
  *pid = static_cast<long>(value);
  return true;
}

// Whether the process that was writing this temp file is gone (so the
// file is an orphan, not a live writer's work in progress). kill(pid, 0)
// probes existence without signalling; EPERM means "exists but not
// ours", which must NOT be treated as dead.
bool WriterIsDead(long pid) {
  if (pid <= 0) {
    return true;
  }
  return ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH;
}

bool EndsWith(const std::string& name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

}  // namespace

// Monotonic counters, written with relaxed atomics from every thread.
struct QrelServer::Stats {
  std::atomic<uint64_t> requests_total{0};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> explains{0};
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> completed_ok{0};
  std::atomic<uint64_t> completed_error{0};
  std::atomic<uint64_t> rejected_invalid{0};
  std::atomic<uint64_t> rejected_cost{0};
  std::atomic<uint64_t> shed_queue_full{0};
  std::atomic<uint64_t> shed_quota{0};
  std::atomic<uint64_t> shed_draining{0};
  std::atomic<uint64_t> shed_tenant_rate{0};
  std::atomic<uint64_t> shed_tenant_quota{0};
  std::atomic<uint64_t> shed_displaced{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> cache_shared{0};
  std::atomic<uint64_t> pressure_degraded{0};
  std::atomic<uint64_t> budget_degraded{0};
  std::atomic<uint64_t> drain_cancelled{0};
  std::atomic<uint64_t> checkpoint_resumes{0};
  std::atomic<uint64_t> checkpoint_corrupt{0};
  std::atomic<uint64_t> attaches{0};
  std::atomic<uint64_t> detaches{0};
  std::atomic<uint64_t> reloads{0};
  std::atomic<uint64_t> reload_failures{0};
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_rejected{0};
  std::atomic<uint64_t> net_faults{0};
  std::atomic<uint64_t> manifest_writes{0};
  std::atomic<uint64_t> manifest_write_failures{0};
  std::atomic<uint64_t> dbs_recovered{0};
  std::atomic<uint64_t> dbs_recovery_failed{0};
  std::atomic<uint64_t> gc_removed{0};
  std::atomic<uint64_t> idem_journaled{0};
  std::atomic<uint64_t> idem_journal_failures{0};
  std::atomic<uint64_t> idem_recovered{0};
};

// One admitted QUERY travelling from the dispatching client thread to a
// worker and back. The leader thread blocks on `cv` until a worker (or a
// fast-fail path: drain cancel, detach sweep, fair displacement)
// publishes `result`. `db` pins the version the request admitted
// against: a concurrent RELOAD cannot change what this job computes.
struct QrelServer::Job {
  // request/db/tenant/budget are written by the dispatching thread before
  // the job is published to the queue and never after — the queue handoff
  // under the server lock orders them for the worker, so they carry no
  // guard of their own.
  Request request;
  std::shared_ptr<const DbVersion> db;
  std::string tenant;
  uint64_t budget = 0;
  // Ranked above the server core lock: the fast-fail paths publish a
  // result under mutex_ (FailQueuedJobLocked).
  Mutex m{LockRank::kServerJob};
  CondVar cv;
  bool done QREL_GUARDED_BY(m) = false;
  CachedResult result QREL_GUARDED_BY(m);
};

// Per-tenant accounting, guarded by mutex_. The token bucket lazily
// refills on each admission attempt.
struct QrelServer::TenantState {
  double tokens = 0.0;
  bool bucket_init = false;
  std::chrono::steady_clock::time_point last_refill;
  uint64_t outstanding_work = 0;
  size_t queued = 0;
  uint64_t admitted = 0;
  uint64_t completed = 0;
  uint64_t shed_rate = 0;
  uint64_t shed_quota = 0;
  uint64_t displaced = 0;
};

QrelServer::QrelServer(ServerOptions options)
    : options_(std::move(options)),
      stats_(new Stats),
      cache_(options_.cache_capacity),
      retry_estimator_(options_.retry_after_base_ms,
                       options_.retry_after_min_ms,
                       options_.retry_after_max_ms) {
  if (options_.workers < 1) {
    options_.workers = 1;
  }
  if (options_.queue_capacity < 1) {
    options_.queue_capacity = 1;
  }
  if (!DbCatalog::ValidName(options_.default_db)) {
    options_.default_db = "default";
  }
  if (!options_.state_dir.empty() && options_.checkpoint_dir.empty()) {
    // One flag turns on the whole durability story: checkpoints live next
    // to the manifest and the idempotency journal.
    options_.checkpoint_dir = options_.state_dir;
  }
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QrelServer::QrelServer(ReliabilityEngine engine, ServerOptions options)
    : QrelServer(std::move(options)) {
  Status attached =
      catalog_.AttachDatabase(options_.default_db, engine.database());
  QREL_CHECK_MSG(attached.ok(), attached.ToString().c_str());
}

QrelServer::~QrelServer() { Shutdown(); }

// ---------------------------------------------------------------------------
// Request lifecycle.

Response QrelServer::Handle(const Request& request) {
  stats_->requests_total.fetch_add(1, std::memory_order_relaxed);
  Status fault = QREL_FAULT_HIT("net.server.dispatch");
  if (!fault.ok()) {
    stats_->net_faults.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(fault);
  }
  switch (request.verb) {
    case RequestVerb::kQuery:
      return HandleQuery(request);
    case RequestVerb::kExplain:
      return HandleExplain(request);
    case RequestVerb::kHealth:
      return HandleHealth();
    case RequestVerb::kStats:
      return HandleStats();
    case RequestVerb::kDrain: {
      BeginDrain();
      Response response;
      response.fields.emplace_back("state", "draining");
      return response;
    }
    case RequestVerb::kAttach:
      return HandleAttach(request);
    case RequestVerb::kDetach:
      return HandleDetach(request);
    case RequestVerb::kReload:
      return HandleReload(request);
    case RequestVerb::kDblist:
      return HandleDblist();
    case RequestVerb::kFault:
      return HandleFault(request);
  }
  return ErrorResponse(Status::Internal("unhandled request verb"));
}

std::string QrelServer::HandlePayload(std::string_view payload) {
  StatusOr<Request> request = ParseRequest(payload);
  if (!request.ok()) {
    stats_->requests_total.fetch_add(1, std::memory_order_relaxed);
    stats_->rejected_invalid.fetch_add(1, std::memory_order_relaxed);
    return SerializeResponse(ErrorResponse(request.status()));
  }
  return SerializeResponse(Handle(*request));
}

// Applies server defaults and (for execution) pressure degradation to a
// request's options. Shared by Admit — the plan must describe the run the
// engine would actually execute — and ExecuteQuery.
static EngineOptions BuildEngineOptions(const Request& request,
                                        const ServerOptions& server,
                                        bool pressured) {
  EngineOptions opts;
  const RequestOptions& ro = request.options;
  if (ro.epsilon.has_value()) {
    opts.epsilon = *ro.epsilon;
  }
  if (ro.delta.has_value()) {
    opts.delta = *ro.delta;
  }
  if (ro.seed.has_value()) {
    opts.seed = *ro.seed;
  }
  opts.fixed_samples = ro.fixed_samples;
  opts.force_exact = ro.force_exact;
  opts.force_approximate = ro.force_approximate;
  // Answer sets are a batch-CLI affordance; responses stay small.
  opts.include_observed_answers = false;
  if (pressured && !ro.force_exact) {
    // Step down the ladder before running: coarser targets and a fixed
    // sample count. The response reports what was actually delivered.
    opts.epsilon = std::max(opts.epsilon, server.pressure_epsilon);
    opts.delta = std::max(opts.delta, server.pressure_delta);
    if (!opts.fixed_samples.has_value() ||
        *opts.fixed_samples > server.pressure_fixed_samples) {
      opts.fixed_samples = server.pressure_fixed_samples;
    }
  }
  return opts;
}

StatusOr<std::shared_ptr<const DbVersion>> QrelServer::ResolveDb(
    const Request& request) const {
  const std::string& name =
      request.options.db.empty() ? options_.default_db : request.options.db;
  if (!DbCatalog::ValidName(name)) {
    return Status::InvalidArgument("invalid database name \"" + name + "\"");
  }
  return catalog_.Resolve(name);
}

Status QrelServer::AdmitTenant(const std::string& tenant,
                               uint64_t* retry_hint_ms) {
  *retry_hint_ms = 0;
  const uint64_t rate = options_.tenant_rate_per_sec;
  if (rate == 0) {
    return Status::Ok();
  }
  const double burst =
      static_cast<double>(std::max<uint64_t>(options_.tenant_burst, 1));
  MutexLock lock(&mutex_);
  TenantState& t = tenants_[tenant];
  auto now = std::chrono::steady_clock::now();
  if (!t.bucket_init) {
    t.tokens = burst;
    t.bucket_init = true;
  } else {
    double elapsed =
        std::chrono::duration<double>(now - t.last_refill).count();
    t.tokens = std::min(burst,
                        t.tokens + elapsed * static_cast<double>(rate));
  }
  t.last_refill = now;
  if (t.tokens < 1.0) {
    ++t.shed_rate;
    stats_->shed_tenant_rate.fetch_add(1, std::memory_order_relaxed);
    // Time until the bucket refills the missing fraction of a token —
    // the most honest Retry-After a rate limit can give.
    double wait_s = (1.0 - t.tokens) / static_cast<double>(rate);
    *retry_hint_ms =
        std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(wait_s * 1e3)));
    return Status::Unavailable("tenant \"" + tenant +
                               "\" is over its request rate");
  }
  t.tokens -= 1.0;
  return Status::Ok();
}

Status QrelServer::Admit(const Request& request, const DbVersion& db,
                         EnginePlan* plan, double* cost) {
  EngineOptions opts = BuildEngineOptions(request, options_, false);
  StatusOr<EnginePlan> explained = db.engine.Explain(request.query, opts);
  if (!explained.ok()) {
    stats_->rejected_invalid.fetch_add(1, std::memory_order_relaxed);
    return explained.status();
  }
  *plan = std::move(explained).value();
  if (plan->has_errors()) {
    stats_->rejected_invalid.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument(FirstErrorMessage(plan->diagnostics));
  }
  // The static cost of the rung the run would execute: worlds for exact
  // enumeration, answer tuples for the quantifier-free algorithm,
  // grounding size for the extensional safe-plan rung (its n^k·n^depth
  // plan evaluations are bounded by n^#variables) and for the sampling
  // estimators. Keying on the *planned* rung means a query that
  // simplifies to a safe or static form is admitted on its polynomial
  // cost, never on the 2^u world count its raw class would suggest.
  switch (plan->rung) {
    case Rung::kStaticClosedForm:
      *cost = 0.0;
      break;
    case Rung::kQuantifierFree:
      *cost = plan->cost.answer_space;
      break;
    case Rung::kExactWorlds:
      *cost = plan->cost.world_count;
      break;
    case Rung::kExtensional:
    case Rung::kCor55:
    case Rung::kPadded:
      *cost = plan->cost.grounding_size;
      break;
  }
  // Negated compare so NaN and +inf reject rather than slip through.
  if (!(*cost <= options_.max_admission_cost)) {
    stats_->rejected_cost.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "static cost estimate " + FormatDouble(*cost) +
        " exceeds the admission ceiling " +
        FormatDouble(options_.max_admission_cost) +
        " (planned: " + plan->planned_method + ")");
  }
  return Status::Ok();
}

uint64_t QrelServer::StoreKey(const Request& request,
                              const DbVersion& db) const {
  // Everything the *result* deterministically depends on, envelope
  // excluded: the applied evaluation options and the PR-4 content
  // fingerprint of the pinned database version.
  EngineOptions applied = BuildEngineOptions(request, options_, false);
  Fingerprint fp;
  fp.Mix("net.query.v1")
      .Mix(request.query)
      .MixDouble(applied.epsilon)
      .MixDouble(applied.delta)
      .Mix(applied.seed)
      .Mix(applied.max_exact_worlds)
      .Mix((applied.force_exact ? 1u : 0u) |
           (applied.force_approximate ? 2u : 0u))
      .Mix(db.fingerprint);
  MixOptional(&fp, applied.fixed_samples);
  return fp.value();
}

uint64_t QrelServer::FlightKey(const Request& request,
                               uint64_t store_key) const {
  // The flight key additionally pins the envelope, so only *exact*
  // duplicates share one computation.
  Fingerprint fp;
  fp.Mix("net.flight.v1").Mix(store_key);
  MixOptional(&fp, request.options.timeout_ms);
  MixOptional(&fp, request.options.max_work);
  return fp.value();
}

uint64_t QrelServer::RetryAfterHintMs() const {
  return retry_estimator_.HintMs(queue_depth(),
                                 static_cast<size_t>(options_.workers));
}

Response QrelServer::HandleQuery(const Request& request) {
  stats_->queries.fetch_add(1, std::memory_order_relaxed);
  const std::string tenant =
      request.options.tenant.empty() ? kDefaultTenant
                                     : request.options.tenant;
  if (!DbCatalog::ValidName(tenant)) {
    stats_->rejected_invalid.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(Status::InvalidArgument(
        "invalid tenant name \"" + tenant + "\""));
  }
  const std::string& idem_key = request.options.idempotency_key;
  if (!idem_key.empty() && !ValidIdempotencyKey(idem_key)) {
    stats_->rejected_invalid.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(Status::InvalidArgument(
        "invalid idempotency key \"" + idem_key +
        "\" (want [A-Za-z0-9_.-]{1,64})"));
  }
  if (draining()) {
    stats_->shed_draining.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(Status::Unavailable("server is draining"),
                         RetryAfterHintMs());
  }
  StatusOr<std::shared_ptr<const DbVersion>> resolved = ResolveDb(request);
  if (!resolved.ok()) {
    if (resolved.status().code() != StatusCode::kUnavailable) {
      stats_->rejected_invalid.fetch_add(1, std::memory_order_relaxed);
    }
    return ErrorResponse(resolved.status(),
                         resolved.status().code() == StatusCode::kUnavailable
                             ? std::optional<uint64_t>(RetryAfterHintMs())
                             : std::nullopt);
  }
  std::shared_ptr<const DbVersion> version = std::move(resolved).value();

  uint64_t tenant_hint = 0;
  Status tenant_admit = AdmitTenant(tenant, &tenant_hint);
  if (!tenant_admit.ok()) {
    return ErrorResponse(tenant_admit,
                         std::max(tenant_hint, RetryAfterHintMs()));
  }

  EnginePlan plan;
  double cost = 0.0;
  Status admitted = Admit(request, *version, &plan, &cost);
  if (!admitted.ok()) {
    return ErrorResponse(admitted);
  }
  stats_->admitted.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(&mutex_);
    ++tenants_[tenant].admitted;
  }

  uint64_t store_key = StoreKey(request, *version);
  uint64_t flight_key = FlightKey(request, store_key);

  // The idempotency key is deliberately NOT mixed into store/flight keys:
  // a post-crash retry of the same request must land on the same
  // checkpoint path and cache slot it was using before the crash.
  bool recovered_key = false;
  std::string journal_path;
  if (!idem_key.empty() && !options_.state_dir.empty()) {
    {
      MutexLock lock(&mutex_);
      auto it = recovered_keys_.find(idem_key);
      if (it != recovered_keys_.end()) {
        // The entry is consumed either way, but recovered=1 is reported
        // only when the journaled identity matches this request: a retry
        // that reuses the key for a different query (or against a changed
        // database) did not resume the pre-crash computation and must not
        // claim it did.
        recovered_key = it->second.flight_key == flight_key &&
                        it->second.store_key == store_key &&
                        it->second.db_fingerprint == version->fingerprint;
        recovered_keys_.erase(it);
      }
    }
    if (recovered_key) {
      stats_->idem_recovered.fetch_add(1, std::memory_order_relaxed);
    }
    journal_path = IdempotencyPath(idem_key);
    IdempotencyRecord record;
    record.key = idem_key;
    record.flight_key = flight_key;
    record.store_key = store_key;
    record.db_fingerprint = version->fingerprint;
    Status journaled = WriteIdempotencyFile(journal_path, record);
    if (journaled.ok()) {
      stats_->idem_journaled.fetch_add(1, std::memory_order_relaxed);
    } else {
      // The journal is a durability upgrade, not an admission gate: the
      // query still runs, it just loses crash-resume for this attempt.
      stats_->idem_journal_failures.fetch_add(1, std::memory_order_relaxed);
      journal_path.clear();
    }
  }

  bool from_cache = false;
  bool shared = false;
  CachedResult result = cache_.GetOrCompute(
      store_key, flight_key, version->fingerprint,
      [&] { return EnqueueAndRun(request, version, tenant); }, &from_cache,
      &shared);
  if (from_cache) {
    stats_->cache_hits.fetch_add(1, std::memory_order_relaxed);
  } else if (shared) {
    stats_->cache_shared.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_->cache_misses.fetch_add(1, std::memory_order_relaxed);
  }
  if (!journal_path.empty()) {
    // The request ran to a response; a later retry has nothing to resume.
    (void)ProcessVfs().Unlink(journal_path);
  }

  Response response;
  if (result.status.ok()) {
    response.fields = result.fields;
  } else {
    response = ErrorResponse(result.status,
                             result.status.code() == StatusCode::kUnavailable
                                 ? std::optional<uint64_t>(RetryAfterHintMs())
                                 : std::nullopt);
  }
  response.fields.emplace_back(
      "cache", from_cache ? "hit" : (shared ? "shared" : "miss"));
  // The pinned version that answered (or would have): the client-side
  // proof of which snapshot it observed, bit-identical under reload.
  response.fields.emplace_back("db", version->name);
  response.fields.emplace_back("db_version",
                               std::to_string(version->version));
  response.fields.emplace_back("db_fingerprint",
                               std::to_string(version->fingerprint));
  if (!idem_key.empty()) {
    response.fields.emplace_back("idempotency_key", idem_key);
    response.fields.emplace_back("recovered", recovered_key ? "1" : "0");
  }
  return response;
}

Response QrelServer::HandleExplain(const Request& request) {
  stats_->explains.fetch_add(1, std::memory_order_relaxed);
  StatusOr<std::shared_ptr<const DbVersion>> resolved = ResolveDb(request);
  if (!resolved.ok()) {
    if (resolved.status().code() != StatusCode::kUnavailable) {
      stats_->rejected_invalid.fetch_add(1, std::memory_order_relaxed);
    }
    return ErrorResponse(resolved.status());
  }
  std::shared_ptr<const DbVersion> version = std::move(resolved).value();
  EnginePlan plan;
  double cost = 0.0;
  Status admitted = Admit(request, *version, &plan, &cost);
  if (!admitted.ok() &&
      admitted.code() != StatusCode::kResourceExhausted) {
    return ErrorResponse(admitted);
  }
  Response response;
  auto& fields = response.fields;
  fields.emplace_back("db", version->name);
  fields.emplace_back("db_version", std::to_string(version->version));
  fields.emplace_back("class", QueryClassName(plan.query_class));
  fields.emplace_back("effective_class",
                      QueryClassName(plan.effective_class));
  fields.emplace_back("static_truth", StaticTruthName(plan.static_truth));
  fields.emplace_back("simplified", plan.simplified_query);
  fields.emplace_back("planned_method", plan.planned_method);
  if (plan.safe_plan_applicable) {
    fields.emplace_back("safe", plan.safe_plan_safe ? "1" : "0");
    if (plan.safe_plan_safe) {
      fields.emplace_back("safe_plan", plan.safe_plan);
    } else {
      fields.emplace_back("safe_plan_blocker", plan.safe_plan_blocker);
    }
  }
  fields.emplace_back("universe_size",
                      std::to_string(plan.cost.universe_size));
  fields.emplace_back("arity", std::to_string(plan.cost.arity));
  fields.emplace_back("variables", std::to_string(plan.cost.variables));
  fields.emplace_back("answer_space", FormatDouble(plan.cost.answer_space));
  fields.emplace_back("grounding_size",
                      FormatDouble(plan.cost.grounding_size));
  fields.emplace_back("uncertain_atoms",
                      std::to_string(plan.cost.uncertain_atoms));
  fields.emplace_back("world_count", FormatDouble(plan.cost.world_count));
  fields.emplace_back("admission_cost", FormatDouble(cost));
  fields.emplace_back("admitted", admitted.ok() ? "1" : "0");
  if (!admitted.ok()) {
    fields.emplace_back("reject_reason", admitted.message());
  }
  return response;
}

Response QrelServer::HandleHealth() const {
  std::vector<DbInfo> infos = catalog_.List();
  bool ready = !draining() && !infos.empty();
  for (const DbInfo& info : infos) {
    if (info.state == DbState::kDraining) {
      ready = false;
    }
  }
  Response response;
  response.fields.emplace_back("state", draining() ? "draining" : "serving");
  // The balancer bit: 1 only when accepting work and every database is
  // serving (a draining database means this replica should be pulled).
  response.fields.emplace_back("ready", ready ? "1" : "0");
  response.fields.emplace_back("queue_depth",
                               std::to_string(queue_depth()));
  response.fields.emplace_back("inflight", std::to_string(inflight()));
  response.fields.emplace_back("workers",
                               std::to_string(options_.workers));
  response.fields.emplace_back(
      "connections",
      std::to_string(live_connections_.load(std::memory_order_relaxed)));
  response.fields.emplace_back("databases", std::to_string(infos.size()));
  for (const DbInfo& info : infos) {
    const std::string prefix = "db." + info.name;
    response.fields.emplace_back(prefix + ".state",
                                 DbStateName(info.state));
    response.fields.emplace_back(prefix + ".version",
                                 std::to_string(info.version));
    response.fields.emplace_back(prefix + ".fingerprint",
                                 std::to_string(info.fingerprint));
  }
  return response;
}

Response QrelServer::HandleStats() const {
  ServerStatsSnapshot s = stats_snapshot();
  ResultCacheStats cache = cache_.stats();
  Response response;
  auto emit = [&response](const std::string& key, uint64_t value) {
    response.fields.emplace_back(key, std::to_string(value));
  };
  emit("requests_total", s.requests_total);
  emit("queries", s.queries);
  emit("explains", s.explains);
  emit("admitted", s.admitted);
  emit("completed_ok", s.completed_ok);
  emit("completed_error", s.completed_error);
  emit("rejected_invalid", s.rejected_invalid);
  emit("rejected_cost", s.rejected_cost);
  emit("shed_queue_full", s.shed_queue_full);
  emit("shed_quota", s.shed_quota);
  emit("shed_draining", s.shed_draining);
  emit("shed_tenant_rate", s.shed_tenant_rate);
  emit("shed_tenant_quota", s.shed_tenant_quota);
  emit("shed_displaced", s.shed_displaced);
  emit("cache_hits", s.cache_hits);
  emit("cache_misses", s.cache_misses);
  emit("cache_shared", s.cache_shared);
  emit("cache_entries", cache.entries);
  emit("cache_evictions", cache.evictions);
  emit("cache_retired", cache.retired);
  emit("pressure_degraded", s.pressure_degraded);
  emit("budget_degraded", s.budget_degraded);
  emit("drain_cancelled", s.drain_cancelled);
  emit("checkpoint_resumes", s.checkpoint_resumes);
  emit("checkpoint_corrupt", s.checkpoint_corrupt);
  emit("attaches", s.attaches);
  emit("detaches", s.detaches);
  emit("reloads", s.reloads);
  emit("reload_failures", s.reload_failures);
  emit("connections_accepted", s.connections_accepted);
  emit("connections_rejected", s.connections_rejected);
  emit("net_faults", s.net_faults);
  emit("manifest_writes", s.manifest_writes);
  emit("manifest_write_failures", s.manifest_write_failures);
  emit("dbs_recovered", s.dbs_recovered);
  emit("dbs_recovery_failed", s.dbs_recovery_failed);
  emit("gc_removed", s.gc_removed);
  emit("idem_journaled", s.idem_journaled);
  emit("idem_journal_failures", s.idem_journal_failures);
  emit("idem_recovered", s.idem_recovered);
  emit("queue_depth", queue_depth());
  emit("inflight", inflight());
  emit("databases", catalog_.size());
  {
    MutexLock lock(&mutex_);
    emit("quota_outstanding", quota_outstanding_);
  }
  emit("work_quota", options_.work_quota);
  emit("retry_samples", retry_estimator_.sample_count());
  std::vector<TenantStatsSnapshot> tenants = tenant_stats();
  emit("tenants", tenants.size());
  for (const TenantStatsSnapshot& t : tenants) {
    const std::string prefix = "tenant." + t.name;
    emit(prefix + ".admitted", t.admitted);
    emit(prefix + ".completed", t.completed);
    emit(prefix + ".shed_rate", t.shed_rate);
    emit(prefix + ".shed_quota", t.shed_quota);
    emit(prefix + ".displaced", t.displaced);
    emit(prefix + ".outstanding_work", t.outstanding_work);
    emit(prefix + ".queued", t.queued);
  }
  return response;
}

// ---------------------------------------------------------------------------
// The admin plane.

Response QrelServer::HandleAttach(const Request& request) {
  Status attached = catalog_.Attach(request.target, request.path);
  if (!attached.ok()) {
    return ErrorResponse(attached);
  }
  stats_->attaches.fetch_add(1, std::memory_order_relaxed);
  Status persisted = PersistManifest();
  Response response;
  response.fields.emplace_back("db", request.target);
  StatusOr<std::shared_ptr<const DbVersion>> resolved =
      catalog_.Resolve(request.target);
  if (resolved.ok()) {
    const DbVersion& v = *resolved.value();
    response.fields.emplace_back("db_version", std::to_string(v.version));
    response.fields.emplace_back("db_fingerprint",
                                 std::to_string(v.fingerprint));
    response.fields.emplace_back("universe_size",
                                 std::to_string(v.universe_size));
    response.fields.emplace_back("facts", std::to_string(v.fact_count));
    response.fields.emplace_back("uncertain_atoms",
                                 std::to_string(v.uncertain_atoms));
  }
  if (!options_.state_dir.empty()) {
    response.fields.emplace_back("manifest",
                                 persisted.ok() ? "written" : "failed");
  }
  return response;
}

Response QrelServer::HandleReload(const Request& request) {
  StatusOr<ReloadOutcome> outcome =
      catalog_.Reload(request.target, request.path);
  if (!outcome.ok()) {
    stats_->reload_failures.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(outcome.status());
  }
  stats_->reloads.fetch_add(1, std::memory_order_relaxed);
  size_t evicted = 0;
  if (outcome->changed) {
    // The displaced version's cache entries are unreachable (keys mix the
    // fingerprint) but would pin its memory; retire them now. In-flight
    // requests pinned to the old version still complete and answer — the
    // retired ring only stops them from re-publishing.
    evicted = cache_.RetireTag(outcome->old_version->fingerprint);
  }
  Response response;
  response.fields.emplace_back("db", request.target);
  response.fields.emplace_back(
      "old_version", std::to_string(outcome->old_version->version));
  response.fields.emplace_back(
      "new_version", std::to_string(outcome->new_version->version));
  response.fields.emplace_back(
      "old_fingerprint",
      std::to_string(outcome->old_version->fingerprint));
  response.fields.emplace_back(
      "new_fingerprint",
      std::to_string(outcome->new_version->fingerprint));
  response.fields.emplace_back("changed", outcome->changed ? "1" : "0");
  response.fields.emplace_back("cache_evicted", std::to_string(evicted));
  Status persisted = PersistManifest();
  if (!options_.state_dir.empty()) {
    response.fields.emplace_back("manifest",
                                 persisted.ok() ? "written" : "failed");
  }
  return response;
}

Response QrelServer::HandleDetach(const Request& request) {
  const std::string& name = request.target;
  StatusOr<std::shared_ptr<const DbVersion>> begun =
      catalog_.BeginDetach(name);
  if (!begun.ok()) {
    return ErrorResponse(begun.status());
  }
  std::shared_ptr<const DbVersion> version = std::move(begun).value();
  const uint64_t fp = version->fingerprint;

  // From here on Resolve(name) fails typed, so no new work can admit
  // against this database. Drain what already did, the way SIGTERM
  // drains the whole server: fail its queued jobs fast, give its
  // in-flight runs the grace period, then cancel cooperatively.
  size_t cancelled = 0;
  {
    MutexLock lock(&mutex_);
    for (auto it = queue_.begin(); it != queue_.end();) {
      if ((*it)->db->fingerprint == fp) {
        std::shared_ptr<Job> job = *it;
        it = queue_.erase(it);
        CachedResult result;
        result.status = Status::Cancelled("database \"" + name +
                                          "\" is detaching");
        FailQueuedJobLocked(job, std::move(result));
        ++cancelled;
      } else {
        ++it;
      }
    }
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options_.drain_grace_ms);
    while (!DbIdleLocked(fp)) {
      if (idle_cv_.WaitUntil(mutex_, deadline) == std::cv_status::timeout) {
        break;
      }
    }
    if (!DbIdleLocked(fp)) {
      for (ActiveRun& run : active_runs_) {
        if (run.db_fingerprint == fp) {
          run.ctx->RequestCancellation();
          ++cancelled;
          stats_->drain_cancelled.fetch_add(1, std::memory_order_relaxed);
        }
      }
      while (!DbIdleLocked(fp)) {
        idle_cv_.Wait(mutex_);
      }
    }
  }
  catalog_.FinishDetach(name);
  size_t evicted = cache_.RetireTag(fp);
  stats_->detaches.fetch_add(1, std::memory_order_relaxed);

  Response response;
  response.fields.emplace_back("db", name);
  response.fields.emplace_back("db_version",
                               std::to_string(version->version));
  response.fields.emplace_back("db_fingerprint", std::to_string(fp));
  response.fields.emplace_back("cancelled", std::to_string(cancelled));
  response.fields.emplace_back("cache_evicted", std::to_string(evicted));
  Status persisted = PersistManifest();
  if (!options_.state_dir.empty()) {
    response.fields.emplace_back("manifest",
                                 persisted.ok() ? "written" : "failed");
  }
  return response;
}

Response QrelServer::HandleDblist() const {
  std::vector<DbInfo> infos = catalog_.List();
  Response response;
  response.fields.emplace_back("databases", std::to_string(infos.size()));
  for (const DbInfo& info : infos) {
    const std::string prefix = "db." + info.name;
    response.fields.emplace_back(prefix + ".state",
                                 DbStateName(info.state));
    response.fields.emplace_back(prefix + ".version",
                                 std::to_string(info.version));
    response.fields.emplace_back(prefix + ".fingerprint",
                                 std::to_string(info.fingerprint));
    response.fields.emplace_back(prefix + ".universe_size",
                                 std::to_string(info.universe_size));
    response.fields.emplace_back(prefix + ".facts",
                                 std::to_string(info.fact_count));
    response.fields.emplace_back(prefix + ".uncertain_atoms",
                                 std::to_string(info.uncertain_atoms));
    if (!info.source_path.empty()) {
      response.fields.emplace_back(prefix + ".path", info.source_path);
    }
  }
  return response;
}

Response QrelServer::HandleFault(const Request& request) {
  if (!options_.enable_fault_verb) {
    return ErrorResponse(Status::FailedPrecondition(
        "FAULT verb is disabled (start the server with "
        "--enable-fault-verb)"));
  }
  Status armed = ArmFaultFromSpec(request.target);
  if (!armed.ok()) {
    return ErrorResponse(armed);
  }
  Response response;
  response.fields.emplace_back("armed", request.target);
  return response;
}

// ---------------------------------------------------------------------------
// Durable state: the catalog manifest, the idempotency journal, and
// crash-restart recovery. All file I/O goes through ProcessVfs(), so the
// crash drills in tests/crash_restart_test.cc exercise these exact paths.

std::string QrelServer::ManifestPath() const {
  return options_.state_dir + "/" + kManifestFileName;
}

std::string QrelServer::IdempotencyPath(const std::string& key) const {
  // The validated key grammar ([A-Za-z0-9_.-]{1,64}) is already
  // filename-safe, so the key itself is embedded: distinct keys can never
  // share one journal file the way a 64-bit hash of them could collide,
  // and the "k-" prefix keeps even "."/".."-shaped keys meaningless to
  // the filesystem.
  return options_.state_dir + "/k-" + key + ".idem";
}

Status QrelServer::PersistManifest() {
  if (options_.state_dir.empty()) {
    return Status::Ok();
  }
  // One writer at a time, held across snapshot *and* write: concurrent
  // admin verbs each run read-catalog-then-rename, and unserialised the
  // slower thread can rename an older catalog snapshot over the newer
  // one, silently dropping a just-attached database from durable state.
  MutexLock manifest_lock(&manifest_mutex_);
  CatalogManifest manifest;
  for (const DbInfo& info : catalog_.List()) {
    if (info.source_path.empty()) {
      // Memory-attached databases (AttachDatabase) have no file to reload
      // from after a restart; they are the caller's job to re-create.
      continue;
    }
    if (info.state == DbState::kDraining) {
      continue;
    }
    ManifestEntry entry;
    entry.name = info.name;
    entry.source_path = info.source_path;
    entry.version = info.version;
    entry.fingerprint = info.fingerprint;
    manifest.entries.push_back(std::move(entry));
  }
  // catalog_.List() iterates a std::map, so entries arrive strictly
  // sorted by name — the canonical order DecodeManifest enforces.
  Status written = WriteManifestFile(ManifestPath(), manifest);
  if (written.ok()) {
    stats_->manifest_writes.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_->manifest_write_failures.fetch_add(1, std::memory_order_relaxed);
  }
  return written;
}

RecoveryReport QrelServer::RecoverState() {
  RecoveryReport report;
  if (options_.state_dir.empty()) {
    return report;
  }
  Vfs& vfs = ProcessVfs();

  // Pass 1: sweep the state directory. Orphaned temp files from writers
  // that died mid-write, corrupt checkpoints, and the idempotency journal
  // are all handled here, before any database is attached.
  StatusOr<std::vector<std::string>> listing = vfs.ListDir(options_.state_dir);
  if (listing.ok()) {
    for (const std::string& name : *listing) {
      const std::string path = options_.state_dir + "/" + name;
      long writer_pid = 0;
      if (ParseTempFileName(name, &writer_pid)) {
        // A live process may still be writing this file (a concurrent
        // server sharing the directory, or our own earlier fork); only
        // reap temps whose writer is provably gone.
        if (WriterIsDead(writer_pid)) {
          if (vfs.Unlink(path).ok()) {
            ++report.gc_removed_temp;
            stats_->gc_removed.fetch_add(1, std::memory_order_relaxed);
          }
        }
        continue;
      }
      if (EndsWith(name, ".idem")) {
        StatusOr<IdempotencyRecord> record = ReadIdempotencyFile(path);
        if (record.ok()) {
          // Normalize: the retry flow rewrites and removes the journal at
          // the key's canonical hashed path, so an entry under any other
          // name (a copied or renamed file) would otherwise leak forever.
          if (path != IdempotencyPath(record->key)) {
            (void)vfs.Unlink(path);
          }
          MutexLock lock(&mutex_);
          recovered_keys_[record->key] = std::move(record).value();
          ++report.journal_recovered;
        } else {
          // A torn or corrupt journal entry is useless for resume; count
          // it and clear it so it cannot be mistaken for live state.
          ++report.journal_corrupt;
          if (vfs.Unlink(path).ok()) {
            ++report.gc_removed_corrupt;
            stats_->gc_removed.fetch_add(1, std::memory_order_relaxed);
          }
        }
        continue;
      }
      if (EndsWith(name, ".snap")) {
        // Checkpoints only pay for themselves when decodable; a torn one
        // would be detected and deleted at query time anyway (see
        // ExecuteQuery), doing it here keeps the directory honest.
        if (!ReadSnapshotFile(path).ok()) {
          if (vfs.Unlink(path).ok()) {
            ++report.gc_removed_corrupt;
            stats_->gc_removed.fetch_add(1, std::memory_order_relaxed);
          }
        }
        continue;
      }
    }
  }

  // Pass 2: replay the manifest. Every failure is per-database and typed;
  // the server always starts and serves whatever subset recovered.
  StatusOr<CatalogManifest> manifest = ReadManifestFile(ManifestPath());
  if (!manifest.ok()) {
    if (manifest.status().code() == StatusCode::kNotFound) {
      return report;  // fresh state dir — nothing to replay
    }
    report.manifest_found = true;
    report.manifest_corrupt = true;
    report.failures.push_back("<manifest>: " + manifest.status().ToString());
    return report;
  }
  report.manifest_found = true;
  for (const ManifestEntry& entry : manifest->entries) {
    if (catalog_.Resolve(entry.name).ok()) {
      // Already attached (constructor default database, or a caller that
      // attached before recovery); the live version wins.
      ++report.skipped_existing;
      continue;
    }
    Status attached = catalog_.Attach(entry.name, entry.source_path);
    if (!attached.ok()) {
      std::string reason =
          attached.code() == StatusCode::kNotFound ||
                  attached.code() == StatusCode::kInvalidArgument
              ? "missing or unreadable source file " + entry.source_path +
                    ": " + attached.ToString()
              : attached.ToString();
      report.failures.push_back(entry.name + ": " + reason);
      stats_->dbs_recovery_failed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    StatusOr<std::shared_ptr<const DbVersion>> resolved =
        catalog_.Resolve(entry.name);
    if (resolved.ok() && (*resolved)->fingerprint != entry.fingerprint) {
      // The file changed behind the manifest's back. Serving it silently
      // would break the bit-identical-answer contract the manifest
      // fingerprint exists to enforce — drop it and report the drift.
      StatusOr<std::shared_ptr<const DbVersion>> begun =
          catalog_.BeginDetach(entry.name);
      if (begun.ok()) {
        catalog_.FinishDetach(entry.name);
      }
      report.failures.push_back(
          entry.name + ": fingerprint drift (manifest " +
          std::to_string(entry.fingerprint) + ", file " +
          std::to_string((*resolved)->fingerprint) + ")");
      stats_->dbs_recovery_failed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    ++report.reattached;
    stats_->dbs_recovered.fetch_add(1, std::memory_order_relaxed);
  }
  // Re-persist so the on-disk manifest reflects what actually recovered
  // (drifted or missing databases drop out instead of failing forever).
  (void)PersistManifest();
  return report;
}

// ---------------------------------------------------------------------------
// Queueing and execution.

void QrelServer::FailQueuedJobLocked(const std::shared_ptr<Job>& job,
                                     CachedResult result) {
  quota_outstanding_ -= job->budget;
  TenantState& t = tenants_[job->tenant];
  if (t.queued > 0) {
    --t.queued;
  }
  t.outstanding_work -= std::min(t.outstanding_work, job->budget);
  {
    MutexLock job_lock(&job->m);
    job->result = std::move(result);
    job->done = true;
  }
  job->cv.NotifyAll();
}

CachedResult QrelServer::EnqueueAndRun(const Request& request,
                                       std::shared_ptr<const DbVersion> db,
                                       const std::string& tenant) {
  auto job = std::make_shared<Job>();
  job->request = request;
  job->db = std::move(db);
  job->tenant = tenant;
  job->budget = std::min(
      request.options.max_work.value_or(options_.default_max_work),
      options_.max_request_work);
  {
    MutexLock lock(&mutex_);
    CachedResult shed;
    if (draining()) {
      stats_->shed_draining.fetch_add(1, std::memory_order_relaxed);
      shed.status = Status::Unavailable("server is draining");
      return shed;
    }
    TenantState& t = tenants_[tenant];
    if (options_.tenant_work_quota > 0 &&
        t.outstanding_work + job->budget > options_.tenant_work_quota) {
      ++t.shed_quota;
      stats_->shed_tenant_quota.fetch_add(1, std::memory_order_relaxed);
      shed.status = Status::Unavailable(
          "tenant \"" + tenant + "\" work quota is saturated (" +
          std::to_string(t.outstanding_work) + "/" +
          std::to_string(options_.tenant_work_quota) +
          " units outstanding)");
      return shed;
    }
    if (queue_.size() >= options_.queue_capacity) {
      // Fair displacement: if one tenant hogs the queue, the incoming
      // request evicts that hog's most recently queued job — but only
      // when the hog has strictly more queued work than the incomer, so
      // displacement can never invert into the hog shedding others.
      const std::string* hog = nullptr;
      size_t hog_queued = t.queued;  // must strictly exceed the incomer
      for (const auto& [tenant_name, state] : tenants_) {
        if (tenant_name != tenant && state.queued > hog_queued) {
          hog_queued = state.queued;
          hog = &tenant_name;
        }
      }
      bool displaced = false;
      if (hog != nullptr) {
        for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
          if ((*it)->tenant == *hog) {
            std::shared_ptr<Job> victim = *it;
            queue_.erase(std::next(it).base());
            stats_->shed_displaced.fetch_add(1, std::memory_order_relaxed);
            ++tenants_[*hog].displaced;
            CachedResult result;
            result.status = Status::Unavailable(
                "displaced from the queue: tenant \"" + *hog +
                "\" is over its fair share");
            FailQueuedJobLocked(victim, std::move(result));
            displaced = true;
            break;
          }
        }
      }
      if (!displaced) {
        stats_->shed_queue_full.fetch_add(1, std::memory_order_relaxed);
        shed.status = Status::Unavailable(
            "request queue is full (" + std::to_string(queue_.size()) +
            " queued)");
        return shed;
      }
    }
    if (quota_outstanding_ + job->budget > options_.work_quota) {
      stats_->shed_quota.fetch_add(1, std::memory_order_relaxed);
      shed.status = Status::Unavailable(
          "server work quota is saturated (" +
          std::to_string(quota_outstanding_) + "/" +
          std::to_string(options_.work_quota) + " units outstanding)");
      return shed;
    }
    quota_outstanding_ += job->budget;
    ++t.queued;
    t.outstanding_work += job->budget;
    queue_.push_back(job);
  }
  queue_cv_.NotifyOne();
  {
    MutexLock lock(&job->m);
    while (!job->done) {
      job->cv.Wait(job->m);
    }
    return job->result;
  }
}

void QrelServer::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    bool pressured = false;
    bool cancel = false;
    {
      MutexLock lock(&mutex_);
      while (!stopping_ && queue_.empty()) {
        queue_cv_.Wait(mutex_);
      }
      if (queue_.empty()) {
        return;  // stopping and drained
      }
      job = queue_.front();
      queue_.pop_front();
      pressured = queue_.size() >= options_.pressure_watermark;
      cancel = drain_cancel_;
      TenantState& t = tenants_[job->tenant];
      if (t.queued > 0) {
        --t.queued;
      }
      ++inflight_by_db_[job->db->fingerprint];
      inflight_.fetch_add(1, std::memory_order_release);
    }
    CachedResult result;
    Status fault = QREL_FAULT_HIT("net.server.worker");
    bool executed = false;
    auto start = std::chrono::steady_clock::now();
    if (cancel) {
      stats_->drain_cancelled.fetch_add(1, std::memory_order_relaxed);
      result.status = Status::Cancelled(
          "server drained before the request started");
    } else if (!fault.ok()) {
      stats_->net_faults.fetch_add(1, std::memory_order_relaxed);
      result.status = fault;
    } else {
      result = ExecuteQuery(job->request, *job->db, job->budget, pressured);
      executed = true;
    }
    if (executed) {
      // Only real engine runs feed the drain-rate estimate; fast-failed
      // jobs would bias the Retry-After hint toward zero.
      double ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      retry_estimator_.RecordServiceTimeMs(ms);
    }
    if (result.status.ok()) {
      stats_->completed_ok.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_->completed_error.fetch_add(1, std::memory_order_relaxed);
    }
    {
      MutexLock lock(&mutex_);
      quota_outstanding_ -= job->budget;
      TenantState& t = tenants_[job->tenant];
      t.outstanding_work -= std::min(t.outstanding_work, job->budget);
      ++t.completed;
      auto by_db = inflight_by_db_.find(job->db->fingerprint);
      if (by_db != inflight_by_db_.end() && --by_db->second == 0) {
        inflight_by_db_.erase(by_db);
      }
      inflight_.fetch_sub(1, std::memory_order_release);
      // Every completion can be the one a DETACH (per-database) or
      // Drain (whole-server) is waiting on.
      idle_cv_.NotifyAll();
    }
    {
      MutexLock lock(&job->m);
      job->result = std::move(result);
      job->done = true;
    }
    job->cv.NotifyAll();
  }
}

CachedResult QrelServer::ExecuteQuery(const Request& request,
                                      const DbVersion& db, uint64_t budget,
                                      bool pressured) {
  if (pressured) {
    stats_->pressure_degraded.fetch_add(1, std::memory_order_relaxed);
  }
  EngineOptions opts = BuildEngineOptions(request, options_, pressured);

  RunContext ctx;
  uint64_t timeout_ms =
      request.options.timeout_ms.value_or(options_.default_timeout_ms);
  if (timeout_ms > 0) {
    ctx.SetDeadline(std::chrono::milliseconds(timeout_ms));
  }
  ctx.SetWorkBudget(budget);

  // Per-request crash/drain safety: resume an identical query's leftover
  // snapshot, checkpoint progress, flush a final snapshot when the drain
  // cancellation lands (CheckpointScope::MaybeCheckpoint flushes on a
  // pending trip). The path is keyed by the *flight* key, not the store
  // key: single-flight guarantees at most one execution per flight key at
  // a time, so exactly one writer ever owns a snapshot path — two
  // concurrent requests that share a store key but differ in envelope
  // (different timeout/max_work) are distinct flights and must not
  // checkpoint into (and then delete) one shared file. The store key
  // mixes the database fingerprint, so versions never share snapshots.
  std::optional<Checkpointer> checkpointer;
  std::string snapshot_path;
  if (!options_.checkpoint_dir.empty()) {
    char name[32];
    std::snprintf(name, sizeof(name), "q%016llx.snap",
                  static_cast<unsigned long long>(
                      FlightKey(request, StoreKey(request, db))));
    snapshot_path = options_.checkpoint_dir + "/" + name;
    checkpointer.emplace(
        snapshot_path,
        std::chrono::milliseconds(options_.checkpoint_interval_ms));
    Status loaded = checkpointer->LoadForResume();
    if (!loaded.ok()) {
      // A corrupt leftover must not make this query permanently
      // unanswerable: delete it and run fresh.
      stats_->checkpoint_corrupt.fetch_add(1, std::memory_order_relaxed);
      (void)ProcessVfs().Unlink(snapshot_path);
      checkpointer.emplace(
          snapshot_path,
          std::chrono::milliseconds(options_.checkpoint_interval_ms));
    }
    ctx.SetCheckpointer(&*checkpointer);
  }
  opts.run_context = &ctx;

  {
    MutexLock lock(&mutex_);
    active_runs_.push_back(ActiveRun{&ctx, db.fingerprint});
  }
  StatusOr<EngineReport> report = db.engine.Run(request.query, opts);
  {
    MutexLock lock(&mutex_);
    active_runs_.erase(
        std::find_if(active_runs_.begin(), active_runs_.end(),
                     [&ctx](const ActiveRun& run) { return run.ctx == &ctx; }));
  }

  if (checkpointer.has_value() && checkpointer->resume_consumed()) {
    stats_->checkpoint_resumes.fetch_add(1, std::memory_order_relaxed);
  }

  CachedResult result;
  if (!report.ok()) {
    result.status = report.status();
    return result;
  }
  if (report->degraded) {
    stats_->budget_degraded.fetch_add(1, std::memory_order_relaxed);
  }
  if (checkpointer.has_value()) {
    // The run finished; the snapshot has served its purpose.
    (void)ProcessVfs().Unlink(snapshot_path);
  }

  auto& fields = result.fields;
  fields.emplace_back("reliability", FormatDouble(report->reliability));
  fields.emplace_back("exact", report->is_exact ? "1" : "0");
  if (report->exact_reliability.has_value()) {
    fields.emplace_back("exact_value",
                        report->exact_reliability->ToString());
  }
  fields.emplace_back("expected_error",
                      FormatDouble(report->expected_error));
  fields.emplace_back("method", report->method);
  fields.emplace_back("class", QueryClassName(report->query_class));
  fields.emplace_back("samples", std::to_string(report->samples));
  fields.emplace_back("epsilon", FormatDouble(opts.epsilon));
  fields.emplace_back("delta", FormatDouble(opts.delta));
  if (report->achieved_epsilon.has_value()) {
    fields.emplace_back("achieved_epsilon",
                        FormatDouble(*report->achieved_epsilon));
  }
  if (report->achieved_delta.has_value()) {
    fields.emplace_back("achieved_delta",
                        FormatDouble(*report->achieved_delta));
  }
  fields.emplace_back("degraded", report->degraded ? "1" : "0");
  if (report->degraded) {
    fields.emplace_back("degradation_reason", report->degradation_reason);
  }
  fields.emplace_back("partial", report->partial ? "1" : "0");
  fields.emplace_back("pressure", pressured ? "1" : "0");
  fields.emplace_back("budget_spent", std::to_string(report->budget_spent));
  // Only envelope-independent answers may be replayed to callers with
  // different budgets (see net/result_cache.h).
  result.storable = !report->degraded && !report->partial && !pressured;
  return result;
}

// ---------------------------------------------------------------------------
// Drain and shutdown.

void QrelServer::BeginDrain() {
  draining_.store(true, std::memory_order_release);
}

void QrelServer::Drain() {
  BeginDrain();
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.drain_grace_ms);
  MutexLock lock(&mutex_);
  while (!IdleLocked()) {
    if (idle_cv_.WaitUntil(mutex_, deadline) == std::cv_status::timeout) {
      break;
    }
  }
  if (!IdleLocked()) {
    // Grace expired: fail queued work fast and cancel running work
    // cooperatively. A cancelled run flushes its final checkpoint at the
    // next safe point and surfaces a typed CANCELLED to its client.
    drain_cancel_ = true;
    for (ActiveRun& run : active_runs_) {
      run.ctx->RequestCancellation();
      stats_->drain_cancelled.fetch_add(1, std::memory_order_relaxed);
    }
    while (!IdleLocked()) {
      idle_cv_.Wait(mutex_);
    }
  }
  drain_cancel_ = false;
}

bool QrelServer::IdleLocked() const {
  return queue_.empty() && inflight_.load(std::memory_order_acquire) == 0;
}

bool QrelServer::DbIdleLocked(uint64_t fingerprint) const {
  auto it = inflight_by_db_.find(fingerprint);
  return it == inflight_by_db_.end() || it->second == 0;
}

void QrelServer::Shutdown() {
  if (shutdown_done_.exchange(true)) {
    return;
  }
  BeginDrain();
  stop_accepting_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // Unblock running requests first: connection threads may be parked in
  // Handle() waiting for a worker.
  Drain();
  {
    MutexLock lock(&conn_mutex_);
    for (Connection& conn : conns_) {
      ::shutdown(conn.fd, SHUT_RDWR);  // wakes any blocked recv with EOF
    }
    // Every fd in conns_ is still open (entries retire before closing),
    // so the sweep above cannot hit a reused descriptor. Wait for all
    // connections to retire, then join their parked threads.
    while (!conns_.empty()) {
      conn_cv_.Wait(conn_mutex_);
    }
  }
  ReapConnectionThreads();
  {
    MutexLock lock(&mutex_);
    stopping_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& t : workers_) {
    if (t.joinable()) {
      t.join();
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

size_t QrelServer::queue_depth() const {
  MutexLock lock(&mutex_);
  return queue_.size();
}

ServerStatsSnapshot QrelServer::stats_snapshot() const {
  ServerStatsSnapshot s;
  const Stats& a = *stats_;
  s.requests_total = a.requests_total.load(std::memory_order_relaxed);
  s.queries = a.queries.load(std::memory_order_relaxed);
  s.explains = a.explains.load(std::memory_order_relaxed);
  s.admitted = a.admitted.load(std::memory_order_relaxed);
  s.completed_ok = a.completed_ok.load(std::memory_order_relaxed);
  s.completed_error = a.completed_error.load(std::memory_order_relaxed);
  s.rejected_invalid = a.rejected_invalid.load(std::memory_order_relaxed);
  s.rejected_cost = a.rejected_cost.load(std::memory_order_relaxed);
  s.shed_queue_full = a.shed_queue_full.load(std::memory_order_relaxed);
  s.shed_quota = a.shed_quota.load(std::memory_order_relaxed);
  s.shed_draining = a.shed_draining.load(std::memory_order_relaxed);
  s.shed_tenant_rate = a.shed_tenant_rate.load(std::memory_order_relaxed);
  s.shed_tenant_quota =
      a.shed_tenant_quota.load(std::memory_order_relaxed);
  s.shed_displaced = a.shed_displaced.load(std::memory_order_relaxed);
  s.cache_hits = a.cache_hits.load(std::memory_order_relaxed);
  s.cache_misses = a.cache_misses.load(std::memory_order_relaxed);
  s.cache_shared = a.cache_shared.load(std::memory_order_relaxed);
  s.pressure_degraded = a.pressure_degraded.load(std::memory_order_relaxed);
  s.budget_degraded = a.budget_degraded.load(std::memory_order_relaxed);
  s.drain_cancelled = a.drain_cancelled.load(std::memory_order_relaxed);
  s.checkpoint_resumes =
      a.checkpoint_resumes.load(std::memory_order_relaxed);
  s.checkpoint_corrupt =
      a.checkpoint_corrupt.load(std::memory_order_relaxed);
  s.attaches = a.attaches.load(std::memory_order_relaxed);
  s.detaches = a.detaches.load(std::memory_order_relaxed);
  s.reloads = a.reloads.load(std::memory_order_relaxed);
  s.reload_failures = a.reload_failures.load(std::memory_order_relaxed);
  s.manifest_writes = a.manifest_writes.load(std::memory_order_relaxed);
  s.manifest_write_failures =
      a.manifest_write_failures.load(std::memory_order_relaxed);
  s.dbs_recovered = a.dbs_recovered.load(std::memory_order_relaxed);
  s.dbs_recovery_failed =
      a.dbs_recovery_failed.load(std::memory_order_relaxed);
  s.gc_removed = a.gc_removed.load(std::memory_order_relaxed);
  s.idem_journaled = a.idem_journaled.load(std::memory_order_relaxed);
  s.idem_journal_failures =
      a.idem_journal_failures.load(std::memory_order_relaxed);
  s.idem_recovered = a.idem_recovered.load(std::memory_order_relaxed);
  s.connections_accepted =
      a.connections_accepted.load(std::memory_order_relaxed);
  s.connections_rejected =
      a.connections_rejected.load(std::memory_order_relaxed);
  s.net_faults = a.net_faults.load(std::memory_order_relaxed);
  return s;
}

std::vector<TenantStatsSnapshot> QrelServer::tenant_stats() const {
  MutexLock lock(&mutex_);
  std::vector<TenantStatsSnapshot> snapshot;
  snapshot.reserve(tenants_.size());
  for (const auto& [name, t] : tenants_) {
    TenantStatsSnapshot row;
    row.name = name;
    row.admitted = t.admitted;
    row.completed = t.completed;
    row.shed_rate = t.shed_rate;
    row.shed_quota = t.shed_quota;
    row.displaced = t.displaced;
    row.outstanding_work = t.outstanding_work;
    row.queued = t.queued;
    snapshot.push_back(std::move(row));
  }
  return snapshot;
}

// ---------------------------------------------------------------------------
// TCP transport.

Status QrelServer::Listen(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + ErrnoString(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr =
      htonl(options_.listen_any ? INADDR_ANY : INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("bind: ") + ErrnoString(saved));
  }
  if (::listen(listen_fd_, 64) < 0) {
    int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("listen: ") + ErrnoString(saved));
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  return Status::Ok();
}

Status QrelServer::ServeInBackground(int port) {
  QREL_RETURN_IF_ERROR(Listen(port));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void QrelServer::ReapConnectionThreads() {
  std::vector<std::thread> finished;
  {
    MutexLock lock(&conn_mutex_);
    finished.swap(reaped_conn_threads_);
  }
  for (std::thread& t : finished) {
    t.join();
  }
}

size_t QrelServer::unreaped_connection_threads() const {
  MutexLock lock(&conn_mutex_);
  return reaped_conn_threads_.size();
}

void QrelServer::AcceptLoop() {
  while (!stop_accepting_.load(std::memory_order_acquire)) {
    // Join connection threads that retired since the last cycle; without
    // this a long-lived server would accumulate one unjoined thread per
    // connection ever accepted.
    ReapConnectionThreads();
    pollfd p;
    p.fd = listen_fd_;
    p.events = POLLIN;
    p.revents = 0;
    int ready = ::poll(&p, 1, 100);
    if (ready <= 0) {
      continue;  // timeout (re-check the stop flag) or EINTR
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    stats_->connections_accepted.fetch_add(1, std::memory_order_relaxed);
    Status fault = QREL_FAULT_HIT("net.server.accept");
    if (!fault.ok()) {
      // A fault at the accept boundary closes the connection before any
      // response bytes: the client sees a clean EOF and reports a typed
      // UNAVAILABLE, never a torn frame.
      stats_->net_faults.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    if (live_connections_.load(std::memory_order_acquire) >=
        options_.max_connections) {
      stats_->connections_rejected.fetch_add(1, std::memory_order_relaxed);
      WriteAll(fd, EncodeFrame(SerializeResponse(ErrorResponse(
                       Status::Unavailable("connection limit reached"),
                       RetryAfterHintMs()))));
      ::close(fd);
      continue;
    }
    if (options_.connection_idle_timeout_ms > 0) {
      timeval tv;
      tv.tv_sec =
          static_cast<time_t>(options_.connection_idle_timeout_ms / 1000);
      tv.tv_usec = static_cast<suseconds_t>(
          (options_.connection_idle_timeout_ms % 1000) * 1000);
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    live_connections_.fetch_add(1, std::memory_order_acq_rel);
    MutexLock lock(&conn_mutex_);
    conns_.emplace_back();
    auto conn = std::prev(conns_.end());
    conn->fd = fd;
    conn->thread = std::thread([this, conn] { ConnectionLoop(conn); });
  }
}

void QrelServer::ConnectionLoop(std::list<Connection>::iterator conn) {
  const int fd = conn->fd;
  std::string buffer;
  char chunk[4096];
  for (;;) {
    // Assemble exactly one frame.
    std::string payload;
    bool closed = false;
    for (;;) {
      size_t consumed = 0;
      Status decoded = DecodeFrame(buffer, &consumed, &payload);
      if (!decoded.ok()) {
        // Unrecoverable framing: answer typed, then drop the stream.
        WriteAll(fd, EncodeFrame(SerializeResponse(ErrorResponse(decoded))));
        closed = true;
        break;
      }
      if (consumed > 0) {
        buffer.erase(0, consumed);
        break;
      }
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n == 0) {
        closed = true;  // clean client EOF
        break;
      }
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        closed = true;  // idle timeout or reset
        break;
      }
      buffer.append(chunk, static_cast<size_t>(n));
    }
    if (closed) {
      break;
    }
    Status fault = QREL_FAULT_HIT("net.server.read");
    if (!fault.ok()) {
      // Fault after a complete frame was read: report it typed (best
      // effort) and close.
      stats_->net_faults.fetch_add(1, std::memory_order_relaxed);
      WriteAll(fd, EncodeFrame(SerializeResponse(ErrorResponse(fault))));
      break;
    }
    std::string response = HandlePayload(payload);
    fault = QREL_FAULT_HIT("net.server.write");
    if (!fault.ok()) {
      // Fault at the write boundary: drop the whole frame, never part of
      // one — the client detects the missing response as a typed error.
      stats_->net_faults.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (!WriteAll(fd, EncodeFrame(response))) {
      break;
    }
  }
  // Retire before touching the fd: once the conns_ entry is gone,
  // Shutdown's sweep can no longer ::shutdown() this fd number, so a
  // kernel reuse of it after the close below can never be hit by
  // mistake. The thread handle is parked for the accept loop (or
  // Shutdown) to join — a thread cannot join itself.
  {
    MutexLock lock(&conn_mutex_);
    reaped_conn_threads_.push_back(std::move(conn->thread));
    conns_.erase(conn);
  }
  conn_cv_.NotifyAll();
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  live_connections_.fetch_sub(1, std::memory_order_acq_rel);
}

}  // namespace qrel
