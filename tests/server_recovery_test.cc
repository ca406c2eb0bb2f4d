// Durable server state (--state-dir): manifest persistence across
// restarts, the per-database recovery taxonomy (missing file, fingerprint
// drift, corrupt manifest — the server always starts and serves the
// last-good subset), the startup GC sweep (orphaned temps of dead
// writers reaped, a live writer's temp untouched), and idempotency-key
// journaling with post-crash recovery. Everything in-process: two
// QrelServer instances sharing a state dir stand in for a restart.

#include "qrel/net/server.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qrel/net/manifest.h"
#include "qrel/net/protocol.h"
#include "qrel/prob/text_format.h"
#include "qrel/util/fault_injection.h"
#include "qrel/util/vfs.h"
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
absent E 2 0 err=1/5
)";

constexpr char kOtherUdbText[] = R"(
universe 2
relation E 2
relation S 1
fact E 0 1 err=1/2
fact S 1
)";

constexpr char kQuery[] = "exists x y . E(x,y) & S(y)";

// Forwards to the real filesystem but refuses to remove journal entries:
// the .idem record a completed query leaves behind under this Vfs is
// byte-for-byte what a crash between admission and response would have
// preserved — the server's real flight/store keys included.
class KeepJournalVfs : public Vfs {
 public:
  StatusOr<int> OpenWrite(const std::string& path) override {
    return RawPosixVfs().OpenWrite(path);
  }
  StatusOr<size_t> Write(int fd, const uint8_t* data, size_t size) override {
    return RawPosixVfs().Write(fd, data, size);
  }
  Status Fsync(int fd) override { return RawPosixVfs().Fsync(fd); }
  Status Close(int fd) override { return RawPosixVfs().Close(fd); }
  Status Rename(const std::string& from, const std::string& to) override {
    return RawPosixVfs().Rename(from, to);
  }
  Status Unlink(const std::string& path) override {
    if (path.size() >= 5 &&
        path.compare(path.size() - 5, 5, ".idem") == 0) {
      return Status::Ok();
    }
    return RawPosixVfs().Unlink(path);
  }
  Status FsyncDir(const std::string& dir) override {
    return RawPosixVfs().FsyncDir(dir);
  }
  StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path,
                                               size_t max_size) override {
    return RawPosixVfs().ReadFileBytes(path, max_size);
  }
  StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return RawPosixVfs().ListDir(dir);
  }
};

class ServerRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestTempPath("recovery");
    ::mkdir(dir_.c_str(), 0755);
  }

  void TearDown() override {
    StatusOr<std::vector<std::string>> names = ProcessVfs().ListDir(dir_);
    if (names.ok()) {
      for (const std::string& name : *names) {
        (void)RawPosixVfs().Unlink(dir_ + "/" + name);
      }
    }
    ::rmdir(dir_.c_str());
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string WriteUdb(const std::string& name, const char* text) {
    std::string path = Path(name);
    std::ofstream out(path, std::ios::trunc);
    out << text;
    return path;
  }

  ServerOptions StateDirOptions() {
    ServerOptions options;
    options.state_dir = dir_;
    return options;
  }

  static Response Attach(QrelServer& server, const std::string& name,
                         const std::string& path) {
    Request request;
    request.verb = RequestVerb::kAttach;
    request.target = name;
    request.path = path;
    return server.Handle(request);
  }

  static Response Query(QrelServer& server, const std::string& db,
                        const std::string& idem = "") {
    Request request;
    request.verb = RequestVerb::kQuery;
    request.query = kQuery;
    request.options.db = db;
    request.options.idempotency_key = idem;
    return server.Handle(request);
  }

  std::vector<std::string> Listing() const {
    StatusOr<std::vector<std::string>> names = ProcessVfs().ListDir(dir_);
    std::vector<std::string> sorted = names.ok() ? *names
                                                 : std::vector<std::string>{};
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }

  std::string dir_;
};

TEST_F(ServerRecoveryTest, AttachPersistsManifestAndRestartRecovers) {
  std::string udb = WriteUdb("data.udb", kUdbText);
  std::string fingerprint;
  {
    QrelServer server(StateDirOptions());
    Response attached = Attach(server, "db1", udb);
    ASSERT_TRUE(attached.ok()) << attached.status.ToString();
    EXPECT_EQ(attached.Field("manifest").value_or(""), "written");
    fingerprint = attached.Field("db_fingerprint").value_or("");
    ASSERT_FALSE(fingerprint.empty());
  }
  StatusOr<CatalogManifest> manifest =
      ReadManifestFile(Path("catalog.manifest"));
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->entries.size(), 1u);
  EXPECT_EQ(manifest->entries[0].name, "db1");
  EXPECT_EQ(manifest->entries[0].source_path, udb);

  QrelServer restarted(StateDirOptions());
  RecoveryReport report = restarted.RecoverState();
  EXPECT_TRUE(report.manifest_found);
  EXPECT_FALSE(report.manifest_corrupt);
  EXPECT_EQ(report.reattached, 1u);
  EXPECT_TRUE(report.failures.empty());

  Response answer = Query(restarted, "db1");
  ASSERT_TRUE(answer.ok()) << answer.status.ToString();
  EXPECT_EQ(answer.Field("exact_value").value_or(""), "3/5");
  // Same file, same content: the recovered fingerprint is bit-identical.
  EXPECT_EQ(answer.Field("db_fingerprint").value_or(""), fingerprint);
}

TEST_F(ServerRecoveryTest, MemoryAttachedDatabasesStayOutOfTheManifest) {
  std::string udb = WriteUdb("data.udb", kUdbText);
  QrelServer server(StateDirOptions());
  StatusOr<UnreliableDatabase> database = ParseUdb(kOtherUdbText);
  ASSERT_TRUE(database.ok());
  ASSERT_TRUE(server.catalog()
                  .AttachDatabase("in_memory", std::move(database).value())
                  .ok());
  ASSERT_TRUE(Attach(server, "on_disk", udb).ok());
  StatusOr<CatalogManifest> manifest =
      ReadManifestFile(Path("catalog.manifest"));
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->entries.size(), 1u);
  EXPECT_EQ(manifest->entries[0].name, "on_disk");
}

TEST_F(ServerRecoveryTest, DetachAndReloadRewriteTheManifest) {
  std::string udb1 = WriteUdb("one.udb", kUdbText);
  std::string udb2 = WriteUdb("two.udb", kUdbText);
  QrelServer server(StateDirOptions());
  ASSERT_TRUE(Attach(server, "one", udb1).ok());
  ASSERT_TRUE(Attach(server, "two", udb2).ok());

  Request reload;
  reload.verb = RequestVerb::kReload;
  reload.target = "two";
  Response reloaded = server.Handle(reload);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status.ToString();
  EXPECT_EQ(reloaded.Field("manifest").value_or(""), "written");
  StatusOr<CatalogManifest> manifest =
      ReadManifestFile(Path("catalog.manifest"));
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->entries.size(), 2u);
  EXPECT_EQ(manifest->entries[1].version, 2u)
      << "reload must persist the bumped version";

  Request detach;
  detach.verb = RequestVerb::kDetach;
  detach.target = "one";
  Response detached = server.Handle(detach);
  ASSERT_TRUE(detached.ok()) << detached.status.ToString();
  EXPECT_EQ(detached.Field("manifest").value_or(""), "written");
  manifest = ReadManifestFile(Path("catalog.manifest"));
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->entries.size(), 1u);
  EXPECT_EQ(manifest->entries[0].name, "two");
}

TEST_F(ServerRecoveryTest, MissingSourceFileCostsTheEntryNotTheProcess) {
  std::string udb = WriteUdb("gone.udb", kUdbText);
  std::string kept = WriteUdb("kept.udb", kUdbText);
  {
    QrelServer server(StateDirOptions());
    ASSERT_TRUE(Attach(server, "doomed", udb).ok());
    ASSERT_TRUE(Attach(server, "kept", kept).ok());
  }
  ASSERT_TRUE(RawPosixVfs().Unlink(udb).ok());

  QrelServer restarted(StateDirOptions());
  RecoveryReport report = restarted.RecoverState();
  EXPECT_EQ(report.reattached, 1u);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("doomed"), std::string::npos);
  EXPECT_NE(report.failures[0].find("missing"), std::string::npos)
      << report.failures[0];
  // The surviving subset serves; the missing one is typed NOT_FOUND.
  EXPECT_TRUE(Query(restarted, "kept").ok());
  EXPECT_EQ(Query(restarted, "doomed").status.code(), StatusCode::kNotFound);
  // The re-persisted manifest dropped the dead entry: the next restart
  // does not re-report it.
  StatusOr<CatalogManifest> manifest =
      ReadManifestFile(Path("catalog.manifest"));
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->entries.size(), 1u);
  EXPECT_EQ(manifest->entries[0].name, "kept");
}

TEST_F(ServerRecoveryTest, FingerprintDriftExcludesTheDatabase) {
  std::string udb = WriteUdb("drift.udb", kUdbText);
  {
    QrelServer server(StateDirOptions());
    ASSERT_TRUE(Attach(server, "drifter", udb).ok());
  }
  // The file changes behind the manifest's back.
  WriteUdb("drift.udb", kOtherUdbText);

  QrelServer restarted(StateDirOptions());
  RecoveryReport report = restarted.RecoverState();
  EXPECT_EQ(report.reattached, 0u);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("fingerprint drift"), std::string::npos)
      << report.failures[0];
  // Serving a drifted file silently would fake bit-identical answers;
  // the database is excluded instead.
  EXPECT_EQ(Query(restarted, "drifter").status.code(), StatusCode::kNotFound);
}

TEST_F(ServerRecoveryTest, CorruptManifestStillStartsTheServer) {
  std::string udb = WriteUdb("data.udb", kUdbText);
  {
    QrelServer server(StateDirOptions());
    ASSERT_TRUE(Attach(server, "db1", udb).ok());
  }
  // Flip one byte mid-file: the checksum catches it.
  StatusOr<std::vector<uint8_t>> bytes =
      ProcessVfs().ReadFileBytes(Path("catalog.manifest"), 1 << 20);
  ASSERT_TRUE(bytes.ok());
  std::vector<uint8_t> corrupt = *bytes;
  corrupt[corrupt.size() / 2] ^= 0xff;
  std::ofstream out(Path("catalog.manifest"), std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(corrupt.data()),
            static_cast<std::streamsize>(corrupt.size()));
  out.close();

  QrelServer restarted(StateDirOptions());
  RecoveryReport report = restarted.RecoverState();
  EXPECT_TRUE(report.manifest_found);
  EXPECT_TRUE(report.manifest_corrupt);
  EXPECT_EQ(report.reattached, 0u);
  // The server still serves: a fresh ATTACH works and rewrites the
  // manifest atomically over the corpse.
  ASSERT_TRUE(Attach(restarted, "db1", udb).ok());
  EXPECT_TRUE(ReadManifestFile(Path("catalog.manifest")).ok());
}

TEST_F(ServerRecoveryTest, GcReapsDeadWritersTempsButSparesLiveOnes) {
  std::string udb = WriteUdb("data.udb", kUdbText);
  // Crashed writers' orphans, in both temp-name generations (bare pid and
  // pid.seq): the pid is guaranteed unused (pid_max on Linux is < 2^22,
  // so kill() reports ESRCH for it).
  std::string orphan = Path("old.snap.tmp.999999999");
  std::string orphan_seq = Path("older.snap.tmp.999999999.7");
  std::string live = Path("inflight.snap.tmp." +
                          std::to_string(static_cast<long>(::getpid())) +
                          ".3");
  // A pid field that does not fit a 32-bit pid was not written by
  // WriteSnapshotFile; probing its truncation could name an unrelated
  // live process, so the sweep must leave the file alone.
  std::string overflow = Path("weird.snap.tmp.4294967295");
  std::ofstream(orphan) << "torn";
  std::ofstream(orphan_seq) << "torn";
  std::ofstream(live) << "in progress";
  std::ofstream(overflow) << "not ours";
  // An undecodable checkpoint leftover.
  std::ofstream(Path("q0000000000000001.snap")) << "garbage";

  QrelServer server(StateDirOptions());
  RecoveryReport report = server.RecoverState();
  EXPECT_EQ(report.gc_removed_temp, 2u);
  EXPECT_EQ(report.gc_removed_corrupt, 1u);

  std::vector<std::string> names = Listing();
  EXPECT_EQ(names, (std::vector<std::string>{
                       "data.udb",
                       "inflight.snap.tmp." +
                           std::to_string(static_cast<long>(::getpid())) +
                           ".3",
                       "weird.snap.tmp.4294967295"}))
      << "GC must reap the dead writers' temps and the corrupt checkpoint, "
         "and must NOT touch a live writer's temp or an overflowing pid";
}

TEST_F(ServerRecoveryTest, JournaledKeyRecoversOnceThenConsumes) {
  std::string udb = WriteUdb("data.udb", kUdbText);
  std::string expect_value;
  {
    // Run the journaled query with journal removal suppressed: the .idem
    // record left on disk carries the keys the server actually computed,
    // exactly as a crash between admission and response would leave it.
    KeepJournalVfs keep;
    ScopedVfsOverride vfs_override(&keep);
    QrelServer server(StateDirOptions());
    ASSERT_TRUE(Attach(server, "db1", udb).ok());
    Response pre_crash = Query(server, "db1", "retry-me");
    ASSERT_TRUE(pre_crash.ok()) << pre_crash.status.ToString();
    expect_value = pre_crash.Field("exact_value").value_or("");
    ASSERT_FALSE(expect_value.empty());
  }
  // The record survived at its canonical key-embedding path...
  ASSERT_TRUE(ReadIdempotencyFile(Path("k-retry-me.idem")).ok());
  // ...and a torn one: counted, removed, never mistaken for live state.
  std::ofstream(Path("k-torn.idem")) << "torn journal";

  QrelServer restarted(StateDirOptions());
  RecoveryReport report = restarted.RecoverState();
  EXPECT_EQ(report.journal_recovered, 1u);
  EXPECT_EQ(report.journal_corrupt, 1u);

  Response first = Query(restarted, "db1", "retry-me");
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  EXPECT_EQ(first.Field("idempotency_key").value_or(""), "retry-me");
  EXPECT_EQ(first.Field("recovered").value_or(""), "1");
  EXPECT_EQ(first.Field("exact_value").value_or(""), expect_value);

  // Consumed: the identical retry is now an ordinary (cached) query.
  Response second = Query(restarted, "db1", "retry-me");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.Field("recovered").value_or(""), "0");

  // The journal file written for the completed request was cleaned up.
  for (const std::string& name : Listing()) {
    EXPECT_EQ(name.find(".idem"), std::string::npos)
        << "journal entry leaked: " << name;
  }
}

TEST_F(ServerRecoveryTest, MismatchedJournalRecordDoesNotClaimRecovery) {
  std::string udb = WriteUdb("data.udb", kUdbText);
  {
    QrelServer server(StateDirOptions());
    ASSERT_TRUE(Attach(server, "db1", udb).ok());
  }
  // A surviving record whose identity does not match the retry:
  // fabricated keys stand in for "same key, different query" or "same
  // key, database changed since the crash". Written under a non-canonical
  // name, which recovery must also normalize away.
  IdempotencyRecord record;
  record.key = "retry-me";
  record.flight_key = 1;
  record.store_key = 2;
  record.db_fingerprint = 3;
  ASSERT_TRUE(WriteIdempotencyFile(Path("k0001.idem"), record).ok());

  QrelServer restarted(StateDirOptions());
  RecoveryReport report = restarted.RecoverState();
  EXPECT_EQ(report.journal_recovered, 1u);
  for (const std::string& name : Listing()) {
    EXPECT_NE(name, "k0001.idem")
        << "non-canonical journal name must be normalized away";
  }

  // The key is consumed, but this request did not resume the journaled
  // computation and must not report that it did.
  Response response = Query(restarted, "db1", "retry-me");
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_EQ(response.Field("recovered").value_or(""), "0");
  Response again = Query(restarted, "db1", "retry-me");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.Field("recovered").value_or(""), "0");
}

TEST_F(ServerRecoveryTest, DistinctKeysGetDistinctJournalFiles) {
  std::string udb = WriteUdb("data.udb", kUdbText);
  KeepJournalVfs keep;
  ScopedVfsOverride vfs_override(&keep);
  QrelServer server(StateDirOptions());
  ASSERT_TRUE(Attach(server, "db1", udb).ok());
  ASSERT_TRUE(Query(server, "db1", "key-a").ok());
  ASSERT_TRUE(Query(server, "db1", "key-b").ok());
  // The key is embedded in the filename, so two in-flight keys can never
  // share (and tear, or silently overwrite) one journal file the way
  // colliding 64-bit hashes could.
  EXPECT_TRUE(ReadIdempotencyFile(Path("k-key-a.idem")).ok());
  EXPECT_TRUE(ReadIdempotencyFile(Path("k-key-b.idem")).ok());
}

TEST_F(ServerRecoveryTest, ConcurrentAdminVerbsKeepTheManifestWhole) {
  // Admin verbs run on independent connection threads; every interleaved
  // PersistManifest must publish a whole, checksummed manifest. Before
  // persistence was serialized, two writers shared one temp file (torn
  // manifest renamed into place) and the slower one could rename a stale
  // catalog snapshot over the newer (lost update).
  std::string udb = WriteUdb("data.udb", kUdbText);
  QrelServer server(StateDirOptions());
  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::atomic<bool> done{false};
  // A concurrent reader sees every published manifest: rename is atomic,
  // so anything other than a whole, decodable file is a torn write.
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      StatusOr<CatalogManifest> manifest =
          ReadManifestFile(Path("catalog.manifest"));
      if (!manifest.ok()) {
        EXPECT_EQ(manifest.status().code(), StatusCode::kNotFound)
            << manifest.status().ToString();
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      const std::string name = "db" + std::to_string(t);
      for (int round = 0; round < kRounds; ++round) {
        EXPECT_TRUE(Attach(server, name, udb).ok());
        Request detach;
        detach.verb = RequestVerb::kDetach;
        detach.target = name;
        EXPECT_TRUE(server.Handle(detach).ok());
      }
      EXPECT_TRUE(Attach(server, name, udb).ok());
    });
  }
  for (std::thread& w : writers) {
    w.join();
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();

  // No lost update: the final manifest holds exactly the databases that
  // finished attached.
  StatusOr<CatalogManifest> manifest =
      ReadManifestFile(Path("catalog.manifest"));
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->entries.size(), static_cast<size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(manifest->entries[static_cast<size_t>(t)].name,
              "db" + std::to_string(t));
  }
}

TEST_F(ServerRecoveryTest, InvalidIdempotencyKeyIsRejectedTyped) {
  std::string udb = WriteUdb("data.udb", kUdbText);
  QrelServer server(StateDirOptions());
  ASSERT_TRUE(Attach(server, "db1", udb).ok());
  Response response = Query(server, "db1", "bad key!");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ServerRecoveryTest, StateDirDefaultsTheCheckpointDir) {
  QrelServer server(StateDirOptions());
  EXPECT_EQ(server.options().checkpoint_dir, dir_);
  ServerOptions both = StateDirOptions();
  both.checkpoint_dir = "/elsewhere";
  QrelServer other(both);
  EXPECT_EQ(other.options().checkpoint_dir, "/elsewhere");
}

TEST_F(ServerRecoveryTest, FaultVerbIsGatedByOption) {
  QrelServer locked(StateDirOptions());
  Request fault;
  fault.verb = RequestVerb::kFault;
  fault.target = "vfs.write:1";
  Response refused = locked.Handle(fault);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status.code(), StatusCode::kFailedPrecondition);

  ServerOptions drills = StateDirOptions();
  drills.enable_fault_verb = true;
  QrelServer open(drills);
  Response armed = open.Handle(fault);
  ASSERT_TRUE(armed.ok()) << armed.status.ToString();
  EXPECT_EQ(armed.Field("armed").value_or(""), "vfs.write:1");
  FaultInjector::Instance().Reset();

  Response bad = open.Handle([] {
    Request r;
    r.verb = RequestVerb::kFault;
    r.target = "";
    return r;
  }());
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace qrel
