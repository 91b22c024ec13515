// Epoch-based reclamation (core/epoch.h): a pinned old epoch keeps its
// snapshot — and the analysis caches hanging off its schema — alive and
// correct while writers publish past it; unpinning the last reader frees
// it (observed through the reclamation counter, leak-free under the asan
// mode of scripts/run_all.sh).

#include "core/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "storage/durable_catalog.h"
#include "testing/fixtures.h"

namespace tyder {
namespace {

namespace fs = std::filesystem;

Catalog PersonEmployeeCatalog() {
  auto fx = testing::BuildPersonEmployee();
  EXPECT_TRUE(fx.ok()) << fx.status().ToString();
  return Catalog(std::move(fx->schema));
}

std::shared_ptr<const Catalog> Shared(Catalog catalog) {
  return std::make_shared<const Catalog>(std::move(catalog));
}

Catalog WithView(Catalog catalog, const std::string& name) {
  auto view = catalog.DefineProjectionView(
      name, "Employee", {"SSN", "date_of_birth", "pay_rate"});
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  return catalog;
}

TEST(EpochCatalogTest, PublishRetireReclaimLifecycle) {
  EpochCatalog epochs;
  epochs.Publish(Shared(PersonEmployeeCatalog()), 1);
  EXPECT_EQ(epochs.published_version(), 1u);
  EXPECT_EQ(epochs.retired_pending(), 0u);

  {
    EpochCatalog::Pin pin(epochs);
    ASSERT_NE(pin.get(), nullptr);
    EXPECT_EQ(pin.version(), 1u);
    EXPECT_TRUE(pin->views().empty());

    // Publishing past the pin retires v1 but must not free it.
    epochs.Publish(Shared(WithView(PersonEmployeeCatalog(), "EmployeeView")), 2);
    EXPECT_EQ(epochs.published_version(), 2u);
    EXPECT_EQ(epochs.retired_pending(), 1u);
    EXPECT_EQ(epochs.TryReclaim(), 0u);
    EXPECT_EQ(epochs.reclaimed(), 0u);

    // The pinned snapshot still serves its own state, not the new epoch's.
    EXPECT_TRUE(pin->views().empty());

    // A fresh pin lands on the new epoch.
    EpochCatalog::Pin fresh(epochs);
    EXPECT_EQ(fresh.version(), 2u);
    EXPECT_EQ(fresh->views().size(), 1u);
  }

  // Last reader gone: the retired epoch is reclaimable.
  EXPECT_EQ(epochs.TryReclaim(), 1u);
  EXPECT_EQ(epochs.reclaimed(), 1u);
  EXPECT_EQ(epochs.retired_pending(), 0u);
}

TEST(EpochCatalogTest, PinnedSchemaStaysInternallyConsistent) {
  EpochCatalog epochs;
  epochs.Publish(Shared(WithView(PersonEmployeeCatalog(), "EmployeeView")), 1);

  EpochCatalog::Pin pin(epochs);
  auto view = pin->FindView("EmployeeView");
  ASSERT_TRUE(view.ok());
  TypeId derived = (*view)->derived;
  TypeId source = (*view)->source;
  // Warm the subtype caches on the pinned snapshot, record the answers.
  bool source_le_derived = pin->schema().types().IsSubtype(source, derived);
  bool derived_le_source = pin->schema().types().IsSubtype(derived, source);

  // Writers storm past the pin: new epochs with the view dropped again.
  for (uint64_t v = 2; v < 10; ++v) {
    epochs.Publish(Shared(PersonEmployeeCatalog()), v);
  }

  // The pinned epoch (and its caches) must answer exactly as before.
  EXPECT_EQ(pin->schema().types().IsSubtype(source, derived),
            source_le_derived);
  EXPECT_EQ(pin->schema().types().IsSubtype(derived, source),
            derived_le_source);
  EXPECT_TRUE(pin->FindView("EmployeeView").ok());
  EXPECT_EQ(pin.version(), 1u);
}

TEST(EpochCatalogTest, StalePublishIsDropped) {
  EpochCatalog epochs;
  epochs.Publish(Shared(WithView(PersonEmployeeCatalog(), "V5")), 5);
  epochs.Publish(Shared(PersonEmployeeCatalog()), 3);  // stale: must not regress
  EXPECT_EQ(epochs.published_version(), 5u);
  EpochCatalog::Pin pin(epochs);
  EXPECT_TRUE(pin->FindView("V5").ok());
}

TEST(EpochCatalogTest, NestedPinsShareTheSlotConservatively) {
  EpochCatalog epochs;
  epochs.Publish(Shared(PersonEmployeeCatalog()), 1);

  EpochCatalog::Pin outer(epochs);
  EXPECT_EQ(outer.version(), 1u);
  epochs.Publish(Shared(WithView(PersonEmployeeCatalog(), "V2")), 2);
  {
    // The inner pin sees the newest epoch but must not overwrite the
    // thread's (older, more conservative) announce.
    EpochCatalog::Pin inner(epochs);
    EXPECT_EQ(inner.version(), 2u);
  }
  epochs.Publish(Shared(WithView(PersonEmployeeCatalog(), "V3")), 3);

  // Both retired epochs are still protected by the outer pin's announce.
  EXPECT_EQ(epochs.retired_pending(), 2u);
  EXPECT_EQ(epochs.TryReclaim(), 0u);
  EXPECT_EQ(outer.version(), 1u);
  EXPECT_TRUE(outer->views().empty());
}

TEST(EpochCatalogTest, UnpinningLastOfManyReadersFrees) {
  EpochCatalog epochs;
  epochs.Publish(Shared(PersonEmployeeCatalog()), 1);

  constexpr int kReaders = 8;
  std::atomic<int> pinned{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      EpochCatalog::Pin pin(epochs);
      EXPECT_EQ(pin.version(), 1u);
      pinned.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      EXPECT_TRUE(pin->views().empty());
    });
  }
  while (pinned.load() < kReaders) std::this_thread::yield();

  epochs.Publish(Shared(WithView(PersonEmployeeCatalog(), "V2")), 2);
  EXPECT_EQ(epochs.retired_pending(), 1u);
  EXPECT_EQ(epochs.TryReclaim(), 0u);  // every reader still pins v1

  release.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(epochs.TryReclaim(), 1u);
  EXPECT_EQ(epochs.reclaimed(), 1u);
}

// Integration with the durable commit path: every acknowledged commit
// publishes an epoch, old epochs reclaim once unpinned, and a pin taken
// before a commit keeps serving the pre-commit state.
TEST(EpochCatalogTest, DurableCatalogPublishesPerCommitEpochs) {
  std::string dir =
      (fs::temp_directory_path() / "tyder_epoch_durable_test").string();
  fs::remove_all(dir);
  auto db = storage::DurableCatalog::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db->Seed(PersonEmployeeCatalog()).ok());

  {
    auto seeded = db->PinSnapshot();
    EXPECT_EQ(seeded.version(), 0u);
    EXPECT_TRUE(seeded->views().empty());

    ASSERT_TRUE(
        db->DefineProjectionView("EmployeeView", "Employee", {"SSN"}).ok());
    EXPECT_EQ(db->last_lsn(), 1u);
    EXPECT_EQ(db->epochs().published_version(), 1u);

    // The pre-commit pin is unaffected; a fresh pin sees the commit.
    EXPECT_TRUE(seeded->views().empty());
    {
      auto pin = db->PinSnapshot();
      EXPECT_EQ(pin.version(), 1u);
      EXPECT_EQ(pin->views().size(), 1u);
    }

    ASSERT_TRUE(db->DropView("EmployeeView").ok());
    EXPECT_EQ(db->epochs().published_version(), 2u);

    // seeded still pins the version-0 epoch: nothing retired at or after
    // its announce may be freed while it lives.
    EXPECT_GT(db->epochs().retired_pending(), 0u);
  }
  // Last pin gone: every retired epoch reclaims.
  db->epochs().TryReclaim();
  EXPECT_GE(db->epochs().reclaimed(), 1u);
  EXPECT_EQ(db->epochs().retired_pending(), 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace tyder
