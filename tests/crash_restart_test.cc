// Crash-restart drills against the real qrel_server binary. For every
// registered crash-after-vfs.* site: fork/exec a server with --state-dir,
// arm the site over the wire (FAULT verb), issue a journaled query, watch
// the process die by SIGKILL at that exact syscall boundary, restart on
// the same state dir, and assert the contract of ISSUE 9 — the manifest
// is intact, no temp file leaked, and a retrying client gets a
// bit-identical answer. Plus: SIGTERM still drains to exit 0, and
// QueryWithRetry rides out a full server restart on the same port.
//
// The server binary path is injected by CMake as QREL_SERVER_BINARY.

#include <dirent.h>
#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qrel/net/client.h"
#include "qrel/net/manifest.h"
#include "qrel/util/status.h"
#include "temp_path.h"

#ifndef QREL_SERVER_BINARY
#error "QREL_SERVER_BINARY must point at the qrel_server executable"
#endif

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
absent E 2 0 err=1/5
)";

constexpr char kQuery[] = "exists x y . E(x,y) & S(y)";

// Every crash trigger the vfs registers: SIGKILL fires after the
// corresponding syscall succeeded, so each drill leaves the filesystem in
// the exact state a power cut at that boundary would.
constexpr const char* kCrashSites[] = {
    "crash-after-vfs.open_write", "crash-after-vfs.write",
    "crash-after-vfs.fsync",      "crash-after-vfs.close",
    "crash-after-vfs.rename",     "crash-after-vfs.fsync_dir",
    "crash-after-vfs.unlink",
};

// One forked qrel_server incarnation. Start() execs the binary, captures
// stdout, and blocks until the "listening  : host:port" banner appears.
class ServerProcess {
 public:
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      (void)WaitExit();
    }
    CloseStdout();
  }

  Status Start(const std::vector<std::string>& args) {
    int fds[2];
    if (::pipe(fds) != 0) {
      return Status(StatusCode::kInternal, "pipe failed");
    }
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return Status(StatusCode::kInternal, "fork failed");
    }
    if (pid_ == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(QREL_SERVER_BINARY));
      for (const std::string& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(QREL_SERVER_BINARY, argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    stdout_fd_ = fds[0];
    return WaitForListening();
  }

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  void Signal(int signum) { ::kill(pid_, signum); }

  // Reaps the child and returns the raw waitpid status.
  int WaitExit() {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return status;
  }

 private:
  void CloseStdout() {
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

  Status WaitForListening() {
    std::string seen;
    // Generous wall: sanitizer builds start slowly.
    for (int spins = 0; spins < 300; ++spins) {
      struct pollfd pfd = {stdout_fd_, POLLIN, 0};
      int ready = ::poll(&pfd, 1, 100);
      if (ready < 0 && errno != EINTR) {
        break;
      }
      if (ready <= 0) {
        continue;
      }
      char buf[1024];
      ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
      if (n <= 0) {
        return Status(StatusCode::kUnavailable,
                      "server exited before listening; output:\n" + seen);
      }
      seen.append(buf, static_cast<size_t>(n));
      size_t at = seen.find("listening  : ");
      if (at == std::string::npos) {
        continue;
      }
      size_t eol = seen.find('\n', at);
      if (eol == std::string::npos) {
        continue;  // banner not complete yet
      }
      std::string line = seen.substr(at, eol - at);
      size_t colon = line.rfind(':');
      size_t space = line.find(' ', colon);
      if (colon == std::string::npos) {
        return Status(StatusCode::kInternal, "unparseable banner: " + line);
      }
      port_ = std::atoi(line.substr(colon + 1, space - colon - 1).c_str());
      if (port_ <= 0) {
        return Status(StatusCode::kInternal, "bad port in banner: " + line);
      }
      return Status::Ok();
    }
    return Status(StatusCode::kDeadlineExceeded,
                  "no listening banner within 30s; output:\n" + seen);
  }

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = -1;
};

class CrashRestartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestTempPath("crash_restart");
    ::mkdir(dir_.c_str(), 0755);
    udb_path_ = dir_ + "/data.udb";
    std::ofstream(udb_path_) << kUdbText;
  }

  void TearDown() override {
    // Best-effort sweep; asserts about leftovers live in the tests.
    for (const std::string& name : Listing()) {
      ::unlink((dir_ + "/" + name).c_str());
    }
    ::rmdir(dir_.c_str());
  }

  std::vector<std::string> BaseArgs(int port) const {
    return {
        "db1=" + udb_path_,
        "--state-dir=" + dir_,
        "--port=" + std::to_string(port),
        "--workers=1",
        "--queue=4",
        "--checkpoint-interval-ms=0",
        "--enable-fault-verb",
    };
  }

  std::vector<std::string> RestartArgs(int port) const {
    // No database argument: the manifest is the only source of truth.
    return {
        "--state-dir=" + dir_,
        "--port=" + std::to_string(port),
        "--workers=1",
        "--queue=4",
        "--checkpoint-interval-ms=0",
        "--enable-fault-verb",
    };
  }

  std::vector<std::string> Listing() const {
    std::vector<std::string> names;
    if (DIR* dir = ::opendir(dir_.c_str())) {
      while (struct dirent* entry = ::readdir(dir)) {
        std::string name = entry->d_name;
        if (name != "." && name != "..") {
          names.push_back(name);
        }
      }
      ::closedir(dir);
    }
    return names;
  }

  std::string dir_;
  std::string udb_path_;
};

TEST_F(CrashRestartTest, EveryCrashSiteSurvivesKillAndRetriesIdentically) {
  for (const char* site : kCrashSites) {
    SCOPED_TRACE(site);

    ServerProcess first;
    ASSERT_TRUE(first.Start(BaseArgs(0)).ok());
    QrelClient client;
    ASSERT_TRUE(client.Connect(first.port(), 5000).ok());

    // Baseline from this incarnation: the answer the retry must reproduce
    // bit-for-bit.
    RequestOptions options;
    options.db = "db1";
    StatusOr<Response> baseline = client.Query(kQuery, options);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ASSERT_TRUE(baseline->ok()) << baseline->status.ToString();
    const std::string expect_value =
        baseline->Field("exact_value").value_or("");
    const std::string expect_fp =
        baseline->Field("db_fingerprint").value_or("");
    ASSERT_FALSE(expect_value.empty());

    // Arm the crash trigger over the wire, then issue the journaled query.
    // The journal write / removal is the first filesystem activity of the
    // request, so the SIGKILL lands mid-request: the client sees a torn
    // transport, never a response.
    StatusOr<Response> armed = client.Fault(site);
    ASSERT_TRUE(armed.ok()) << armed.status().ToString();
    ASSERT_TRUE(armed->ok()) << armed->status.ToString();

    options.idempotency_key = "drill-1";
    StatusOr<Response> torn = client.Query(kQuery, options);
    ASSERT_FALSE(torn.ok()) << "query survived an armed " << site;

    int status = first.WaitExit();
    ASSERT_TRUE(WIFSIGNALED(status)) << "server exited instead of crashing";
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // Restart on the same state dir, database args omitted: recovery must
    // replay the manifest.
    ServerProcess second;
    ASSERT_TRUE(second.Start(RestartArgs(0)).ok());

    // The manifest survived the crash (old or new version, but readable)...
    StatusOr<CatalogManifest> manifest =
        ReadManifestFile(dir_ + "/catalog.manifest");
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    ASSERT_EQ(manifest->entries.size(), 1u);
    EXPECT_EQ(manifest->entries[0].name, "db1");

    // ...and the retry, same query + same idempotency key, reproduces the
    // answer bit-identically.
    QrelClient retry;
    ASSERT_TRUE(retry.Connect(second.port(), 5000).ok());
    StatusOr<Response> replay = retry.QueryWithRetry(kQuery, options);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    ASSERT_TRUE(replay->ok()) << replay->status.ToString();
    EXPECT_EQ(replay->Field("exact_value").value_or(""), expect_value);
    EXPECT_EQ(replay->Field("db_fingerprint").value_or(""), expect_fp);
    EXPECT_EQ(replay->Field("idempotency_key").value_or(""), "drill-1");

    // Zero orphaned temps after recovery: the startup sweep reaped
    // whatever the crash left mid-rename.
    for (const std::string& name : Listing()) {
      EXPECT_EQ(name.find(".tmp."), std::string::npos)
          << "orphaned temp survived recovery after " << site << ": " << name;
    }

    second.Signal(SIGTERM);
    int drained = second.WaitExit();
    ASSERT_TRUE(WIFEXITED(drained));
    EXPECT_EQ(WEXITSTATUS(drained), 0);
  }
}

TEST_F(CrashRestartTest, SigtermDrainsToExitZero) {
  ServerProcess server;
  ASSERT_TRUE(server.Start(BaseArgs(0)).ok());
  QrelClient client;
  ASSERT_TRUE(client.Connect(server.port(), 5000).ok());
  RequestOptions options;
  options.db = "db1";
  StatusOr<Response> answer = client.Query(kQuery, options);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_TRUE(answer->ok());

  server.Signal(SIGTERM);
  int status = server.WaitExit();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST_F(CrashRestartTest, QueryWithRetryReconnectsAcrossRestart) {
  ServerProcess first;
  ASSERT_TRUE(first.Start(BaseArgs(0)).ok());
  const int port = first.port();

  QrelClient client;
  ASSERT_TRUE(client.Connect(port, 5000).ok());
  RequestOptions options;
  options.db = "db1";
  StatusOr<Response> before = client.Query(kQuery, options);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(before->ok());

  // Hard-kill the server; the client's connection is now a corpse.
  first.Signal(SIGKILL);
  int status = first.WaitExit();
  ASSERT_TRUE(WIFSIGNALED(status));

  // Bring a new incarnation up on the same port (SO_REUSEADDR), manifest
  // recovery repopulating the catalog.
  ServerProcess second;
  ASSERT_TRUE(second.Start(RestartArgs(port)).ok());
  ASSERT_EQ(second.port(), port);

  // The same client object retries: the dead connection surfaces as a
  // retryable UNAVAILABLE, QueryWithRetry reconnects, and the recovered
  // server answers identically.
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.total_deadline_ms = 20000;
  options.idempotency_key = "reconnect-1";
  StatusOr<Response> after = client.QueryWithRetry(kQuery, options, policy);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_TRUE(after->ok()) << after->status.ToString();
  EXPECT_EQ(after->Field("exact_value").value_or(""),
            before->Field("exact_value").value_or("x"));
  EXPECT_EQ(after->Field("db_fingerprint").value_or(""),
            before->Field("db_fingerprint").value_or("x"));

  second.Signal(SIGTERM);
  int drained = second.WaitExit();
  ASSERT_TRUE(WIFEXITED(drained));
  EXPECT_EQ(WEXITSTATUS(drained), 0);
}

}  // namespace
}  // namespace qrel
