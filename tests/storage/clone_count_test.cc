// One whole-catalog clone per mutation (core/transaction.h clone-and-swap),
// pinned by the always-on `catalog.clones` counter: every durable mutation
// clones the tip exactly once whether it is accepted or refused, publishing
// hands the committed clone over by pointer, a failed commit re-points the
// tip without copying, and a nested derivation reuses its caller's clone.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "catalog/catalog.h"
#include "catalog/serialize.h"
#include "common/failpoint.h"
#include "core/projection.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "storage/catalog_snapshot.h"
#include "storage/durable_catalog.h"
#include "testing/fixtures.h"

#if TYDER_OBS_ENABLED

namespace tyder::storage {
namespace {

namespace fs = std::filesystem;

const std::vector<std::string> kViewAttrs = {"SSN", "date_of_birth",
                                             "pay_rate"};

uint64_t Clones() {
  return obs::MetricsRegistry::Global().CounterValue("catalog.clones");
}

// Runs `op` and returns how many catalog clones it made.
template <typename Op>
uint64_t ClonesOf(Op&& op) {
  uint64_t before = Clones();
  op();
  return Clones() - before;
}

std::string FreshDir(const std::string& name) {
  std::string dir =
      (fs::temp_directory_path() / ("tyder_clone_count_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

Result<DurableCatalog> OpenSeeded(const std::string& dir) {
  auto fx = testing::BuildPersonEmployee();
  if (!fx.ok()) return fx.status();
  TYDER_ASSIGN_OR_RETURN(DurableCatalog db, DurableCatalog::Open(dir));
  TYDER_RETURN_IF_ERROR(db.Seed(Catalog(std::move(fx->schema))));
  return db;
}

class CloneCountTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DeactivateAll(); }
};

TEST_F(CloneCountTest, DurableMutationsCloneOnceAcceptedOrRefused) {
  auto db = OpenSeeded(FreshDir("ops"));
  ASSERT_TRUE(db.ok()) << db.status();

  EXPECT_EQ(ClonesOf([&] {
              EXPECT_TRUE(db->DefineSelectionView("S", "Employee").ok());
            }),
            1u);
  EXPECT_EQ(ClonesOf([&] {  // refused: the name is taken
              EXPECT_FALSE(db->DefineSelectionView("S", "Employee").ok());
            }),
            1u);
  EXPECT_EQ(ClonesOf([&] {
              EXPECT_TRUE(
                  db->DefineProjectionView("V", "Employee", kViewAttrs).ok());
            }),
            1u);
  EXPECT_EQ(ClonesOf([&] {  // refused by the verifier
              failpoint::Activate("verify.force_failure", 1);
              EXPECT_FALSE(
                  db->DefineProjectionView("W", "Employee", kViewAttrs).ok());
            }),
            1u);
  EXPECT_EQ(ClonesOf([&] { EXPECT_TRUE(db->DropView("S").ok()); }), 1u);
  EXPECT_EQ(ClonesOf([&] {  // refused: no such view
              EXPECT_FALSE(db->DropView("S").ok());
            }),
            1u);
  EXPECT_EQ(ClonesOf([&] {  // refused mid-collapse
              failpoint::Activate("collapse.before", 1);
              EXPECT_FALSE(db->Collapse().ok());
            }),
            1u);
  EXPECT_EQ(ClonesOf([&] { EXPECT_TRUE(db->Collapse().ok()); }), 1u);
  // Dropping a projection reverts its derivation inside the same clone.
  EXPECT_EQ(ClonesOf([&] { EXPECT_TRUE(db->DropView("V").ok()); }), 1u);
}

TEST_F(CloneCountTest, PublishAndRollbackCloneNothing) {
  std::string dir = FreshDir("publish");
  {
    auto db = OpenSeeded(dir);
    ASSERT_TRUE(db.ok()) << db.status();

    // The published epoch is the committed clone itself, not a copy of it.
    ASSERT_TRUE(db->DefineProjectionView("V", "Employee", kViewAttrs).ok());
    EXPECT_EQ(db->PinSnapshot().get(), &db->catalog());
    EXPECT_EQ(ClonesOf([&] { EXPECT_TRUE(db->Compact().ok()); }), 0u);

    // A failed commit re-points the tip at the durable epoch: the op's own
    // clone is the only one.
    const Catalog* durable = &db->catalog();
    std::string pre = SerializeCatalog(*durable);
    EXPECT_EQ(ClonesOf([&] {
                failpoint::Activate("storage.env.append", 1);
                EXPECT_FALSE(db->DefineSelectionView("S", "Employee").ok());
              }),
              1u);
    EXPECT_FALSE(db->degraded());
    EXPECT_EQ(&db->catalog(), durable);
    EXPECT_EQ(db->PinSnapshot().get(), durable);
    EXPECT_EQ(SerializeCatalog(db->catalog()), pre);

    ASSERT_TRUE(db->DefineSelectionView("S", "Employee").ok());
    ASSERT_TRUE(db->DropView("S").ok());
  }
  // Recovery replays with at most one clone per record.
  uint64_t before = Clones();
  auto reopened = DurableCatalog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->recovery().replayed_records, 2u);
  EXPECT_LE(Clones() - before, 2u);
  fs::remove_all(dir);
}

TEST_F(CloneCountTest, NestedDerivationReusesTheCallersClone) {
  auto fx = testing::BuildPersonEmployee();
  ASSERT_TRUE(fx.ok()) << fx.status();
  Catalog catalog(fx->schema);
  EXPECT_EQ(ClonesOf([&] {
              EXPECT_TRUE(
                  catalog.DefineProjectionView("V", "Employee", kViewAttrs)
                      .ok());
            }),
            1u);
  // The revert runs inside the drop's clone.
  EXPECT_EQ(ClonesOf([&] { EXPECT_TRUE(catalog.DropView("V").ok()); }), 1u);
  // Projection plus alias accessors, all in one clone.
  EXPECT_EQ(ClonesOf([&] {
              EXPECT_TRUE(catalog
                              .DefineRenameView("R", "Employee",
                                                {{"SSN", "ssn_alias"}})
                              .ok());
            }),
            1u);
  EXPECT_EQ(ClonesOf([&] {
              EXPECT_TRUE(DeriveProjectionByName(fx->schema, "Employee",
                                                 kViewAttrs, "V")
                              .ok());
            }),
            1u);
}

TEST_F(CloneCountTest, RefusedDurableProjectionLeavesEpochAndTipIntact) {
  auto db = OpenSeeded(FreshDir("refused"));
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->DefineSelectionView("S", "Employee").ok());
  const Catalog* tip = &db->catalog();
  std::string pre_tip = SerializeCatalog(db->catalog());
  std::string pre_epoch = SerializeCatalog(*db->PinSnapshot());

  failpoint::Activate("verify.force_failure", 1);
  auto refused = db->DefineProjectionView("V", "Employee", kViewAttrs);
  failpoint::DeactivateAll();
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("broke an invariant"),
            std::string::npos)
      << refused.status();

  EXPECT_EQ(&db->catalog(), tip);
  EXPECT_EQ(SerializeCatalog(db->catalog()), pre_tip);
  EXPECT_EQ(SerializeCatalog(*db->PinSnapshot()), pre_epoch);
}

}  // namespace
}  // namespace tyder::storage

#endif  // TYDER_OBS_ENABLED
