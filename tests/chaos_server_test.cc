// Chaos suite for the serving layer: drive a real TCP loopback server,
// then arm every net.server.* fault site in turn and assert the client
// sees a *typed* error — never a hang, a crash, or a torn response
// mistaken for a complete one. Also pins the client-side error taxonomy
// (EOF-before-response → UNAVAILABLE, mid-frame → DATA_LOSS) and the
// protocol-level DRAIN path. Runs under QREL_SANITIZE in the sanitizer
// build like the engine chaos suite.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qrel/net/client.h"
#include "qrel/net/protocol.h"
#include "qrel/net/server.h"
#include "qrel/prob/text_format.h"
#include "qrel/util/fault_injection.h"
#include "temp_path.h"

namespace qrel {
namespace {

constexpr char kUdbText[] = R"(
universe 3
relation E 2
relation S 1
fact E 0 1 err=1/4
fact E 1 2 err=1/8
fact S 0
absent S 1 err=1/3
)";

constexpr char kQuery[] = "exists x y . E(x,y) & S(y)";

ReliabilityEngine TestEngine() {
  StatusOr<UnreliableDatabase> database = ParseUdb(kUdbText);
  EXPECT_TRUE(database.ok()) << database.status().ToString();
  return ReliabilityEngine(std::move(database).value());
}

class ChaosServerTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_F(ChaosServerTest, TcpRoundTripAllVerbs) {
  QrelServer server(TestEngine(), ServerOptions{});
  ASSERT_TRUE(server.ServeInBackground(0).ok());
  QrelClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());

  StatusOr<Response> response = client.Query(kQuery);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok()) << response->status.ToString();
  EXPECT_EQ(response->Field("exact_value").value_or(""), "3/4");

  response = client.Explain(kQuery);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Field("admitted").value_or(""), "1");

  response = client.Health();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Field("state").value_or(""), "serving");

  response = client.Stats();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Field("queries").value_or(""), "1");

  // A second connection shares the same server state.
  QrelClient other;
  ASSERT_TRUE(other.Connect(server.port()).ok());
  response = other.Query(kQuery);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Field("cache").value_or(""), "hit");
  server.Shutdown();
}

TEST_F(ChaosServerTest, ServerRejectsInvalidQueryOverTcp) {
  QrelServer server(TestEngine(), ServerOptions{});
  ASSERT_TRUE(server.ServeInBackground(0).ok());
  QrelClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  StatusOr<Response> response = client.Query("Nope(x)");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);
  // The connection survives a rejected request.
  response = client.Health();
  ASSERT_TRUE(response.ok());
  server.Shutdown();
}

// Every net.server.* fault site, one at a time: the client must get a
// typed outcome and the server must survive to answer a clean retry on a
// fresh connection.
TEST_F(ChaosServerTest, EveryNetFaultSiteYieldsATypedClientError) {
  QrelServer server(TestEngine(), ServerOptions{});
  ASSERT_TRUE(server.ServeInBackground(0).ok());

  // Clean pass so every lazily-registered net site exists.
  {
    QrelClient client;
    ASSERT_TRUE(client.Connect(server.port()).ok());
    StatusOr<Response> response = client.Query(kQuery);
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->ok());
  }

  std::vector<std::string> net_sites;
  for (const std::string& site : FaultInjector::Instance().SiteNames()) {
    if (site.rfind("net.server.", 0) == 0) {
      net_sites.push_back(site);
    }
  }
  std::sort(net_sites.begin(), net_sites.end());
  EXPECT_EQ(net_sites,
            (std::vector<std::string>{"net.server.accept", "net.server.dispatch",
                                      "net.server.read", "net.server.worker",
                                      "net.server.write"}));

  uint64_t expected_faults = 0;
  for (const std::string& site : net_sites) {
    SCOPED_TRACE(site);
    FaultInjector::Instance().Reset();
    FaultInjector::Instance().Arm(site, 1, StatusCode::kInternal);

    QrelClient client;
    Status connected = client.Connect(server.port(), /*recv_timeout_ms=*/15000);
    ASSERT_TRUE(connected.ok()) << connected.ToString();
    // A distinct seed per site keeps the request out of the result cache,
    // so the dispatch/worker sites are actually reached every time.
    RequestOptions options;
    options.seed = 1000 + (++expected_faults);
    StatusOr<Response> response = client.Query(kQuery, options);

    if (response.ok()) {
      // The fault surfaced as a typed protocol-level error response.
      EXPECT_FALSE(response->ok()) << "site " << site
                                   << " produced a clean answer";
      EXPECT_EQ(response->status.code(), StatusCode::kInternal);
    } else {
      // The fault tore the connection down before a response: the client
      // maps that to a typed, retry-safe transport error — never a torn
      // frame mistaken for an answer, never a hang.
      EXPECT_TRUE(response.status().code() == StatusCode::kUnavailable ||
                  response.status().code() == StatusCode::kDataLoss)
          << "site " << site << ": " << response.status().ToString();
    }
    EXPECT_EQ(FaultInjector::Instance().TriggeredCount(site), 1u);

    // One-shot faults disarm: the same request on a fresh connection now
    // succeeds, and bit-identically to the unfaulted baseline.
    QrelClient retry;
    ASSERT_TRUE(retry.Connect(server.port()).ok());
    StatusOr<Response> clean = retry.Query(kQuery, options);
    ASSERT_TRUE(clean.ok()) << site << ": " << clean.status().ToString();
    ASSERT_TRUE(clean->ok()) << site << ": " << clean->status.ToString();
    EXPECT_EQ(clean->Field("exact_value").value_or(""), "3/4");
  }

  EXPECT_GE(server.stats_snapshot().net_faults, expected_faults);
  server.Shutdown();
}

TEST_F(ChaosServerTest, ClientMapsConnectionRefusedToUnavailable) {
  // Grab an ephemeral port, then close the listener: connecting to it
  // must yield a typed UNAVAILABLE, not a crash or a hang.
  int dead_port;
  {
    QrelServer server(TestEngine(), ServerOptions{});
    ASSERT_TRUE(server.ServeInBackground(0).ok());
    dead_port = server.port();
    server.Shutdown();
  }
  QrelClient client;
  Status connected = client.Connect(dead_port);
  EXPECT_EQ(connected.code(), StatusCode::kUnavailable);
}

TEST_F(ChaosServerTest, DrainOverTcpShedsThenShutsDownCleanly) {
  QrelServer server(TestEngine(), ServerOptions{});
  ASSERT_TRUE(server.ServeInBackground(0).ok());
  QrelClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());

  StatusOr<Response> response = client.Drain();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->Field("state").value_or(""), "draining");

  // Queries shed with a typed retryable UNAVAILABLE; HEALTH still works
  // so orchestration can watch the drain.
  response = client.Query(kQuery);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(response->retry_after_ms.has_value());

  response = client.Health();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Field("state").value_or(""), "draining");

  server.Shutdown();
  EXPECT_EQ(server.stats_snapshot().shed_draining, 1u);
}

// Raw bytes that are not a frame: the server answers one typed
// INVALID_ARGUMENT frame and closes — the stream has no resync point.
TEST_F(ChaosServerTest, MalformedFrameGetsTypedErrorThenClose) {
  QrelServer server(TestEngine(), ServerOptions{});
  ASSERT_TRUE(server.ServeInBackground(0).ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char garbage[] = "this is not a length prefix\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, MSG_NOSIGNAL), 0);

  std::string received;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      break;  // the server closed after its error frame
    }
    received.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);

  size_t consumed = 0;
  std::string payload;
  ASSERT_TRUE(DecodeFrame(received, &consumed, &payload).ok());
  ASSERT_GT(consumed, 0u) << "no complete error frame before close";
  StatusOr<Response> response = ParseResponse(payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);
  server.Shutdown();
}

// Regression for the remote-DoS review finding: a valid max-size frame
// whose payload is one giant unknown verb used to echo the whole verb
// into the error message, overflow the response frame, and abort the
// server on a fatal CHECK. One unauthenticated request, whole server
// down. Now: one bounded typed error, server stays up.
TEST_F(ChaosServerTest, MaxSizeGarbageRequestGetsBoundedTypedError) {
  QrelServer server(TestEngine(), ServerOptions{});
  ASSERT_TRUE(server.ServeInBackground(0).ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // Exactly kMaxFramePayload bytes of payload: a legal frame the decoder
  // accepts, carrying an unknown verb as large as the protocol allows.
  std::string verb(kMaxFramePayload - 1, 'Z');
  std::string frame = EncodeFrame(verb + "\n");
  size_t sent = 0;
  while (sent < frame.size()) {
    ssize_t n =
        ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }

  // Read exactly one response frame (the connection survives a rejected
  // request, so waiting for EOF would hang).
  std::string received;
  std::string payload;
  size_t consumed = 0;
  char chunk[4096];
  for (;;) {
    Status decoded = DecodeFrame(received, &consumed, &payload);
    ASSERT_TRUE(decoded.ok()) << decoded.ToString();
    if (consumed > 0) {
      break;
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "connection died before a typed response";
    received.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);

  EXPECT_LE(payload.size(), kMaxErrorMessageBytes + 64);
  StatusOr<Response> response = ParseResponse(payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);

  // The server survived: a fresh client gets a clean answer.
  QrelClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  StatusOr<Response> clean = client.Query(kQuery);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_TRUE(clean->ok()) << clean->status.ToString();
  server.Shutdown();
}

// Connection threads must be joined as connections retire, not hoarded
// until Shutdown — a long-lived server would otherwise leak one thread
// stack per connection ever accepted.
TEST_F(ChaosServerTest, RetiredConnectionThreadsAreReaped) {
  QrelServer server(TestEngine(), ServerOptions{});
  ASSERT_TRUE(server.ServeInBackground(0).ok());

  for (int i = 0; i < 8; ++i) {
    QrelClient client;
    ASSERT_TRUE(client.Connect(server.port()).ok());
    StatusOr<Response> response = client.Health();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    client.Close();
  }

  // The accept loop joins retired threads each poll cycle (~100ms).
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (server.unreaped_connection_threads() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.unreaped_connection_threads(), 0u);
  server.Shutdown();
}

// Two concurrent requests that share a *store* key but differ in
// envelope are distinct flights; each must own its own snapshot path.
// Regression: both used to checkpoint into one q<store-key>.snap, with
// the first finisher deleting the file out from under the other.
TEST_F(ChaosServerTest, ConcurrentFlightsWithSharedStoreKeyDoNotCollide) {
  std::string dir = TestTempPath("qrel_flight_snap");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));

  ServerOptions options;
  options.workers = 2;
  options.cache_capacity = 0;  // force both to execute
  options.default_max_work = uint64_t{1} << 27;
  options.max_request_work = uint64_t{1} << 27;
  options.work_quota = uint64_t{1} << 30;
  options.checkpoint_dir = dir;
  options.checkpoint_interval_ms = 1;
  QrelServer server(TestEngine(), options);

  Request request;
  request.verb = RequestVerb::kQuery;
  request.query = kQuery;
  request.options.force_approximate = true;
  request.options.fixed_samples = 400000;
  Request same_store_key = request;
  same_store_key.options.max_work = (uint64_t{1} << 27) - 1;

  Response a;
  Response b;
  std::thread first([&server, &request, &a] { a = server.Handle(request); });
  std::thread second(
      [&server, &same_store_key, &b] { b = server.Handle(same_store_key); });
  first.join();
  second.join();

  // Distinct snapshot paths means neither run can load the other's
  // checkpoints or delete them mid-flight: both finish clean and
  // bit-identical (same determinism inputs).
  ASSERT_TRUE(a.ok()) << a.status.ToString();
  ASSERT_TRUE(b.ok()) << b.status.ToString();
  EXPECT_EQ(a.Field("reliability"), b.Field("reliability"));
  EXPECT_EQ(a.Field("samples"), b.Field("samples"));
  EXPECT_EQ(server.stats_snapshot().checkpoint_corrupt, 0u);
  EXPECT_EQ(server.stats_snapshot().checkpoint_resumes, 0u);
  // Both runs succeeded, so both snapshots are gone.
  EXPECT_TRUE(std::filesystem::is_empty(std::filesystem::path(dir)));
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------------------------
// Catalog chaos: the admin plane under injected faults and live traffic.

// kUdbText with one error rate changed: the canary query's exact
// reliability is 1 - 1/2*1/3 = 5/6 instead of 1 - 3/4*1/3 = 3/4.
constexpr char kAltUdbText[] = R"(
universe 3
relation E 2
relation S 1
fact E 0 1 err=1/2
fact E 1 2 err=1/8
fact S 0
absent S 1 err=1/3
)";

void WaitFor(const std::function<bool()>& predicate, int timeout_ms = 30000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (!predicate()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "condition not reached in time";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// Every net.catalog.* fault site, one at a time, over TCP: the admin verb
// fails typed, the already-serving version keeps answering bit-identically,
// and a clean retry of the same admin verb succeeds.
TEST_F(ChaosServerTest, EveryCatalogFaultSiteLeavesTheOldVersionServing) {
  std::string path = WriteTestTempFile("qrel_chaos_catalog.udb", kUdbText);
  QrelServer server(TestEngine(), ServerOptions{});
  ASSERT_TRUE(server.ServeInBackground(0).ok());
  QrelClient client;
  ASSERT_TRUE(client.Connect(server.port(), /*recv_timeout_ms=*/30000).ok());

  // Clean attach → reload → detach → attach pass so every lazily
  // registered catalog site exists, ending with "spare" attached.
  StatusOr<Response> admin = client.Attach("spare", path);
  ASSERT_TRUE(admin.ok() && admin->ok()) << admin.status().ToString();
  admin = client.Reload("spare");
  ASSERT_TRUE(admin.ok() && admin->ok()) << admin.status().ToString();
  admin = client.Detach("spare");
  ASSERT_TRUE(admin.ok() && admin->ok()) << admin.status().ToString();
  admin = client.Attach("spare", path);
  ASSERT_TRUE(admin.ok() && admin->ok()) << admin.status().ToString();

  std::vector<std::string> catalog_sites;
  for (const std::string& site : FaultInjector::Instance().SiteNames()) {
    if (site.rfind("net.catalog.", 0) == 0) {
      catalog_sites.push_back(site);
    }
  }
  std::sort(catalog_sites.begin(), catalog_sites.end());
  EXPECT_EQ(catalog_sites,
            (std::vector<std::string>{
                "net.catalog.attach", "net.catalog.detach",
                "net.catalog.fingerprint", "net.catalog.load",
                "net.catalog.swap", "net.catalog.verify"}));

  RequestOptions on_spare;
  on_spare.db = "spare";
  for (const std::string& site : catalog_sites) {
    SCOPED_TRACE(site);
    FaultInjector::Instance().Reset();
    FaultInjector::Instance().Arm(site, 1, StatusCode::kInternal);

    StatusOr<Response> faulted = Status::Internal("unset");
    if (site == "net.catalog.attach") {
      faulted = client.Attach("spare2", path);
    } else if (site == "net.catalog.detach") {
      faulted = client.Detach("spare");
    } else {
      faulted = client.Reload("spare");
    }
    ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
    EXPECT_EQ(faulted->status.code(), StatusCode::kInternal)
        << faulted->status.ToString();
    EXPECT_EQ(FaultInjector::Instance().TriggeredCount(site), 1u);

    // The fault disturbed nothing: the attached version still serves the
    // bit-identical answer.
    StatusOr<Response> canary = client.Query(kQuery, on_spare);
    ASSERT_TRUE(canary.ok()) << canary.status().ToString();
    ASSERT_TRUE(canary->ok()) << canary->status.ToString();
    EXPECT_EQ(canary->Field("exact_value").value_or(""), "3/4");
    EXPECT_EQ(canary->Field("db").value_or(""), "spare");

    // One-shot faults disarm: a clean retry of the same verb succeeds.
    StatusOr<Response> retry = Status::Internal("unset");
    if (site == "net.catalog.attach") {
      retry = client.Attach("spare2", path);
      ASSERT_TRUE(retry.ok() && retry->ok()) << site;
      ASSERT_TRUE(client.Detach("spare2")->ok());
    } else if (site == "net.catalog.detach") {
      retry = client.Detach("spare");
      ASSERT_TRUE(retry.ok() && retry->ok()) << site;
      ASSERT_TRUE(client.Attach("spare", path)->ok());
    } else {
      retry = client.Reload("spare");
      ASSERT_TRUE(retry.ok() && retry->ok()) << site;
    }
  }
  EXPECT_GE(server.stats_snapshot().reload_failures, 4u);
  server.Shutdown();
  std::remove(path.c_str());
}

// Reload churn under live traffic: every OK answer must be bit-identical
// to the *version it reports having run against* — a request admitted
// before a swap answers from its pinned snapshot, never a half-reloaded
// one. With two content-distinct versions alternating, that means every
// response's db_fingerprint maps to exactly one exact_value, and only the
// two legitimate values ever appear.
TEST_F(ChaosServerTest, ConcurrentReloadPinsEveryAnswerToItsVersion) {
  std::string path = WriteTestTempFile("qrel_chaos_churn.udb", kUdbText);
  QrelServer server(TestEngine(), ServerOptions{});
  ASSERT_TRUE(server.ServeInBackground(0).ok());
  {
    QrelClient admin;
    ASSERT_TRUE(admin.Connect(server.port()).ok());
    ASSERT_TRUE(admin.Attach("churn", path)->ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> bad_answers{0};
  std::mutex seen_mutex;
  std::map<std::string, std::string> value_by_fingerprint;

  constexpr int kTrafficThreads = 3;
  std::vector<std::thread> traffic;
  for (int t = 0; t < kTrafficThreads; ++t) {
    traffic.emplace_back([&server, &stop, &bad_answers, &seen_mutex,
                          &value_by_fingerprint] {
      QrelClient client;
      ASSERT_TRUE(client.Connect(server.port(), 30000).ok());
      RequestOptions options;
      options.db = "churn";
      while (!stop.load(std::memory_order_acquire)) {
        StatusOr<Response> response = client.Query(kQuery, options);
        if (!response.ok()) {
          ASSERT_TRUE(client.Connect(server.port(), 30000).ok());
          continue;
        }
        if (!response->ok()) {
          continue;  // transient shed is legal; a wrong answer is not
        }
        std::string fingerprint =
            response->Field("db_fingerprint").value_or("");
        std::string value = response->Field("exact_value").value_or("");
        if (value != "3/4" && value != "5/6") {
          bad_answers.fetch_add(1);
        }
        std::unique_lock<std::mutex> lock(seen_mutex);
        auto [it, inserted] =
            value_by_fingerprint.emplace(fingerprint, value);
        if (!inserted && it->second != value) {
          bad_answers.fetch_add(1);  // one version, two different answers
        }
      }
    });
  }

  // The churn thread alternates the database between the two contents.
  {
    QrelClient admin;
    ASSERT_TRUE(admin.Connect(server.port(), 30000).ok());
    for (int round = 0; round < 10; ++round) {
      WriteTestTempFile("qrel_chaos_churn.udb",
                   (round % 2 == 0) ? kAltUdbText : kUdbText);
      StatusOr<Response> reloaded = admin.Reload("churn");
      ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
      ASSERT_TRUE(reloaded->ok()) << reloaded->status.ToString();
      EXPECT_EQ(reloaded->Field("changed").value_or(""), "1");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : traffic) {
    t.join();
  }

  EXPECT_EQ(bad_answers.load(), 0);
  // Both contents actually served during the churn.
  std::set<std::string> values;
  for (const auto& [fingerprint, value] : value_by_fingerprint) {
    values.insert(value);
  }
  EXPECT_EQ(values, (std::set<std::string>{"3/4", "5/6"}));
  server.Shutdown();
  std::remove(path.c_str());
}

// DETACH drains one database the way SIGTERM drains the whole server:
// its in-flight work is cancelled typed after the grace period, other
// databases never notice, and the name then fails typed NOT_FOUND.
TEST_F(ChaosServerTest, DetachDrainsInFlightWorkLikeSigterm) {
  ServerOptions options;
  options.workers = 2;
  options.default_max_work = uint64_t{1} << 27;
  options.max_request_work = uint64_t{1} << 27;
  options.work_quota = uint64_t{1} << 30;
  options.drain_grace_ms = 20;
  std::string path = WriteTestTempFile("qrel_chaos_detach.udb", kUdbText);
  QrelServer server(TestEngine(), options);
  ASSERT_TRUE(server.ServeInBackground(0).ok());
  QrelClient admin;
  ASSERT_TRUE(admin.Connect(server.port(), 30000).ok());
  ASSERT_TRUE(admin.Attach("victim", path)->ok());

  // A slow in-flight run against the victim database.
  Request slow;
  slow.verb = RequestVerb::kQuery;
  slow.query = kQuery;
  slow.options.db = "victim";
  slow.options.force_approximate = true;
  slow.options.fixed_samples = 50000000;
  Response cancelled;
  std::thread inflight(
      [&server, &slow, &cancelled] { cancelled = server.Handle(slow); });
  WaitFor([&server] { return server.inflight() == 1; });

  StatusOr<Response> detached = admin.Detach("victim");
  ASSERT_TRUE(detached.ok()) << detached.status().ToString();
  ASSERT_TRUE(detached->ok()) << detached->status.ToString();
  inflight.join();
  // The straggler outlived the grace period: typed CANCELLED, no hang.
  EXPECT_EQ(cancelled.status.code(), StatusCode::kCancelled);

  // The name is gone, typed; the default database never noticed.
  StatusOr<Response> gone = admin.Query(kQuery, slow.options);
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->status.code(), StatusCode::kNotFound);
  StatusOr<Response> unaffected = admin.Query(kQuery);
  ASSERT_TRUE(unaffected.ok());
  ASSERT_TRUE(unaffected->ok()) << unaffected->status.ToString();
  EXPECT_EQ(unaffected->Field("exact_value").value_or(""), "3/4");
  EXPECT_EQ(server.inflight(), 0u);
  server.Shutdown();
  std::remove(path.c_str());
}

// The tenant-isolation chaos property: one tenant saturating the queue
// cannot shed another tenant's traffic. The hog's surplus jobs are the
// ones displaced; the quiet tenant admits, runs, and completes.
TEST_F(ChaosServerTest, ASaturatingTenantCannotShedAnotherTenant) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 3;
  options.default_max_work = uint64_t{1} << 27;
  options.max_request_work = uint64_t{1} << 27;
  options.work_quota = uint64_t{1} << 30;
  QrelServer server(TestEngine(), options);

  auto slow = [](uint64_t seed, const std::string& tenant) {
    Request request;
    request.verb = RequestVerb::kQuery;
    request.query = kQuery;
    request.options.force_approximate = true;
    request.options.fixed_samples = 2000000;
    request.options.seed = seed;
    request.options.tenant = tenant;
    return request;
  };

  // The hog: one running plus a full queue of its jobs.
  std::vector<std::thread> hog_threads;
  std::vector<Response> hog_responses(4);
  for (int i = 0; i < 4; ++i) {
    hog_threads.emplace_back([&server, &slow, &hog_responses, i] {
      hog_responses[i] =
          server.Handle(slow(static_cast<uint64_t>(i) + 1, "hog"));
    });
    if (i == 0) {
      WaitFor([&server] { return server.inflight() == 1; });
    } else {
      size_t want = static_cast<size_t>(i);
      WaitFor([&server, want] { return server.queue_depth() == want; });
    }
  }

  // The quiet tenant arrives at a full queue — and must not be shed:
  // the hog's most recent job is displaced to make room.
  Response quiet = server.Handle(slow(100, "quiet"));
  ASSERT_TRUE(quiet.ok()) << quiet.status.ToString();

  for (std::thread& t : hog_threads) {
    t.join();
  }
  int hog_displaced = 0;
  for (const Response& response : hog_responses) {
    if (!response.ok()) {
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
      ++hog_displaced;
    }
  }
  EXPECT_EQ(hog_displaced, 1);

  ServerStatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.shed_displaced, 1u);
  EXPECT_EQ(stats.shed_queue_full, 0u);
  std::vector<TenantStatsSnapshot> tenants = server.tenant_stats();
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].name, "hog");
  EXPECT_EQ(tenants[0].displaced, 1u);
  EXPECT_EQ(tenants[1].name, "quiet");
  EXPECT_EQ(tenants[1].displaced, 0u);
  EXPECT_EQ(tenants[1].completed, 1u);
}

}  // namespace
}  // namespace qrel
