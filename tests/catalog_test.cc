// DbCatalog unit tests: attach/resolve/list, versioned reload with the
// all-or-nothing swap contract, the two-phase detach protocol, name
// validation, and typed failures at every net.catalog.* fault site.

#include "qrel/net/catalog.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

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
fact S 0
absent S 1 err=1/3
)";

constexpr char kAltUdbText[] = R"(
universe 3
relation E 2
relation S 1
fact E 0 1 err=1/2
fact S 0
absent S 1 err=1/3
)";

UnreliableDatabase TestDatabase(const char* text = kUdbText) {
  StatusOr<UnreliableDatabase> database = ParseUdb(text);
  EXPECT_TRUE(database.ok()) << database.status().ToString();
  return std::move(database).value();
}

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_F(CatalogTest, ValidNameRejectsPathologies) {
  EXPECT_TRUE(DbCatalog::ValidName("orders"));
  EXPECT_TRUE(DbCatalog::ValidName("orders_v2.prod-eu"));
  EXPECT_TRUE(DbCatalog::ValidName("A"));
  EXPECT_FALSE(DbCatalog::ValidName(""));
  EXPECT_FALSE(DbCatalog::ValidName("has space"));
  EXPECT_FALSE(DbCatalog::ValidName("new\nline"));
  EXPECT_FALSE(DbCatalog::ValidName("slash/y"));
  EXPECT_FALSE(DbCatalog::ValidName(std::string(65, 'x')));
  EXPECT_TRUE(DbCatalog::ValidName(std::string(64, 'x')));
}

TEST_F(CatalogTest, AttachResolveListRoundTrip) {
  DbCatalog catalog;
  EXPECT_EQ(catalog.size(), 0u);
  ASSERT_TRUE(catalog.AttachDatabase("orders", TestDatabase()).ok());
  EXPECT_EQ(catalog.size(), 1u);

  StatusOr<std::shared_ptr<const DbVersion>> resolved =
      catalog.Resolve("orders");
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  const DbVersion& v = *resolved.value();
  EXPECT_EQ(v.name, "orders");
  EXPECT_EQ(v.version, 1u);
  EXPECT_EQ(v.universe_size, 3);
  EXPECT_NE(v.fingerprint, 0u);

  std::vector<DbInfo> infos = catalog.List();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "orders");
  EXPECT_EQ(infos[0].state, DbState::kServing);

  EXPECT_EQ(catalog.Resolve("missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog.AttachDatabase("bad name", TestDatabase())
                .code(),
            StatusCode::kInvalidArgument);
  // The name is taken: a second attach must not clobber it.
  EXPECT_EQ(catalog.AttachDatabase("orders", TestDatabase()).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CatalogTest, AttachFromFileRecordsTheSourcePath) {
  std::string path = WriteTestTempFile("qrel_catalog_attach.udb", kUdbText);
  DbCatalog catalog;
  ASSERT_TRUE(catalog.Attach("orders", path).ok());
  StatusOr<std::shared_ptr<const DbVersion>> resolved =
      catalog.Resolve("orders");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value()->source_path, path);
  // A bad file fails typed and leaves no catalog entry behind.
  EXPECT_FALSE(catalog.Attach("broken", path + ".does-not-exist").ok());
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.Resolve("broken").status().code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST_F(CatalogTest, ReloadBumpsVersionAndReportsContentChange) {
  std::string path = WriteTestTempFile("qrel_catalog_reload.udb", kUdbText);
  DbCatalog catalog;
  ASSERT_TRUE(catalog.Attach("orders", path).ok());
  uint64_t fp1 = catalog.Resolve("orders").value()->fingerprint;

  // Unchanged content: version bumps (a reload is a new snapshot), but
  // changed=false tells the caller no cache invalidation is needed.
  StatusOr<ReloadOutcome> same = catalog.Reload("orders");
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_FALSE(same->changed);
  EXPECT_EQ(same->new_version->version, 2u);
  EXPECT_EQ(same->new_version->fingerprint, fp1);

  WriteTestTempFile("qrel_catalog_reload.udb", kAltUdbText);
  StatusOr<ReloadOutcome> changed = catalog.Reload("orders");
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(changed->changed);
  EXPECT_EQ(changed->old_version->fingerprint, fp1);
  EXPECT_NE(changed->new_version->fingerprint, fp1);
  EXPECT_EQ(changed->new_version->version, 3u);
  EXPECT_EQ(catalog.Resolve("orders").value()->version, 3u);

  // An explicit replacement path is adopted as the new source path.
  std::string alt_path =
      WriteTestTempFile("qrel_catalog_reload_alt.udb", kUdbText);
  StatusOr<ReloadOutcome> moved = catalog.Reload("orders", alt_path);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(catalog.Resolve("orders").value()->source_path, alt_path);

  EXPECT_EQ(catalog.Reload("missing").status().code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
  std::remove(alt_path.c_str());
}

TEST_F(CatalogTest, FailedReloadLeavesTheOldVersionUntouched) {
  std::string path = WriteTestTempFile("qrel_catalog_badreload.udb", kUdbText);
  DbCatalog catalog;
  ASSERT_TRUE(catalog.Attach("orders", path).ok());
  std::shared_ptr<const DbVersion> before =
      catalog.Resolve("orders").value();

  WriteTestTempFile("qrel_catalog_badreload.udb", "universe banana\n");
  EXPECT_FALSE(catalog.Reload("orders").ok());
  // Same object, not just same content: nothing was swapped.
  EXPECT_EQ(catalog.Resolve("orders").value().get(), before.get());
  // And the entry is reloadable again (the failure released the claim).
  WriteTestTempFile("qrel_catalog_badreload.udb", kAltUdbText);
  EXPECT_TRUE(catalog.Reload("orders").ok());
  std::remove(path.c_str());
}

TEST_F(CatalogTest, MemoryAttachedDatabasesReloadInMemoryOnly) {
  DbCatalog catalog;
  ASSERT_TRUE(catalog.AttachDatabase("mem", TestDatabase()).ok());
  // No recorded source path: a path-less reload cannot know what to read.
  EXPECT_EQ(catalog.Reload("mem").status().code(),
            StatusCode::kInvalidArgument);
  StatusOr<ReloadOutcome> outcome =
      catalog.ReloadDatabase("mem", TestDatabase(kAltUdbText));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->changed);
  EXPECT_EQ(outcome->new_version->version, 2u);
}

TEST_F(CatalogTest, TwoPhaseDetachProtocol) {
  DbCatalog catalog;
  ASSERT_TRUE(catalog.AttachDatabase("orders", TestDatabase()).ok());

  StatusOr<std::shared_ptr<const DbVersion>> begun =
      catalog.BeginDetach("orders");
  ASSERT_TRUE(begun.ok()) << begun.status().ToString();
  EXPECT_EQ(begun.value()->name, "orders");
  // Draining: resolves fail typed retryable, re-detach and reload fail.
  EXPECT_EQ(catalog.Resolve("orders").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(catalog.BeginDetach("orders").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(catalog.Reload("orders").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(catalog.List()[0].state, DbState::kDraining);

  // Cancel restores serving.
  catalog.CancelDetach("orders");
  EXPECT_TRUE(catalog.Resolve("orders").ok());

  // Begin again and finish: the entry is gone.
  ASSERT_TRUE(catalog.BeginDetach("orders").ok());
  catalog.FinishDetach("orders");
  EXPECT_EQ(catalog.Resolve("orders").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog.size(), 0u);

  EXPECT_EQ(catalog.BeginDetach("missing").status().code(),
            StatusCode::kNotFound);
}

TEST_F(CatalogTest, DetachedVersionOutlivesItsCatalogEntry) {
  DbCatalog catalog;
  ASSERT_TRUE(catalog.AttachDatabase("orders", TestDatabase()).ok());
  std::shared_ptr<const DbVersion> pinned =
      catalog.Resolve("orders").value();
  ASSERT_TRUE(catalog.BeginDetach("orders").ok());
  catalog.FinishDetach("orders");
  // The RCU contract: a holder of the shared_ptr can keep computing
  // against the version after the catalog forgot it.
  EXPECT_EQ(pinned->name, "orders");
  EXPECT_EQ(pinned->universe_size, 3);
}

// Every reload-path fault site: the typed error surfaces and the serving
// version is untouched — byte-for-byte the same object.
TEST_F(CatalogTest, ReloadFaultSitesNeverDisturbTheServingVersion) {
  std::string path = WriteTestTempFile("qrel_catalog_fault.udb", kUdbText);
  DbCatalog catalog;
  ASSERT_TRUE(catalog.Attach("orders", path).ok());
  std::shared_ptr<const DbVersion> before =
      catalog.Resolve("orders").value();

  for (const char* site :
       {"net.catalog.load", "net.catalog.verify", "net.catalog.fingerprint",
        "net.catalog.swap"}) {
    SCOPED_TRACE(site);
    FaultInjector::Instance().Reset();
    FaultInjector::Instance().Arm(site, 1, StatusCode::kInternal);
    StatusOr<ReloadOutcome> outcome = catalog.Reload("orders");
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kInternal);
    EXPECT_EQ(catalog.Resolve("orders").value().get(), before.get());
  }

  // After all that chaos a clean reload still works.
  FaultInjector::Instance().Reset();
  EXPECT_TRUE(catalog.Reload("orders").ok());
  std::remove(path.c_str());
}

TEST_F(CatalogTest, AttachAndDetachFaultSitesFailTyped) {
  std::string path = WriteTestTempFile("qrel_catalog_fault2.udb", kUdbText);
  DbCatalog catalog;

  FaultInjector::Instance().Arm("net.catalog.attach", 1,
                                StatusCode::kInternal);
  EXPECT_EQ(catalog.Attach("orders", path).code(), StatusCode::kInternal);
  EXPECT_EQ(catalog.size(), 0u);
  ASSERT_TRUE(catalog.Attach("orders", path).ok());

  FaultInjector::Instance().Arm("net.catalog.detach", 1,
                                StatusCode::kInternal);
  EXPECT_EQ(catalog.BeginDetach("orders").status().code(),
            StatusCode::kInternal);
  // The failed begin left no draining mark behind.
  EXPECT_TRUE(catalog.Resolve("orders").ok());
  std::remove(path.c_str());
}

// A failed load during attach of a brand-new name erases the placeholder:
// the name is immediately reusable.
TEST_F(CatalogTest, FailedAttachReleasesTheName) {
  std::string path = WriteTestTempFile("qrel_catalog_fault3.udb", kUdbText);
  DbCatalog catalog;
  FaultInjector::Instance().Arm("net.catalog.load", 1,
                                StatusCode::kInternal);
  EXPECT_FALSE(catalog.Attach("orders", path).ok());
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_TRUE(catalog.Attach("orders", path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qrel
