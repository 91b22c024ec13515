// One whole-catalog clone per mutation (core/transaction.h clone-and-swap),
// pinned by the always-on `catalog.clones` counter: every durable mutation
// clones the tip exactly once whether it is accepted or refused, publishing
// hands the committed clone over by pointer, a failed commit re-points the
// tip without copying, and a nested derivation reuses its caller's clone.
// Recovery clones once per verified derivation and once per run of other
// records between them.

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
#include "storage/wal.h"
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
  // Recovery replays both unverified records into one draft.
  uint64_t before = Clones();
  auto reopened = DurableCatalog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->recovery().replayed_records, 2u);
  EXPECT_EQ(Clones() - before, 1u);
  fs::remove_all(dir);
}

TEST_F(CloneCountTest, RecoveringUnverifiedRecordsClonesOnce) {
  std::string dir = FreshDir("unverified");
  std::string live;
  {
    auto db = OpenSeeded(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    for (int i = 0; i < 20; ++i) {
      std::string name = "S" + std::to_string(i);
      ASSERT_TRUE(db->DefineSelectionView(name, "Employee").ok());
      ASSERT_TRUE(db->DropView(name).ok());
    }
    ASSERT_TRUE(db->DefineSelectionView("Kept", "Person").ok());
    live = SerializeCatalog(db->catalog());
  }
  uint64_t before = Clones();
  auto reopened = DurableCatalog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(Clones() - before, 1u);
  EXPECT_EQ(reopened->recovery().replayed_records, 41u);
  EXPECT_EQ(SerializeCatalog(reopened->catalog()), live);
  fs::remove_all(dir);
}

// Writes one WAL record of every kind: select, drop, no-verify projection,
// drop of that projection view, verified projection, generalization, rename
// and collapse. Replay takes 3 verified derivations plus 2 runs of other
// records (lsn 1-4 and lsn 8).
void WriteMixedWal(DurableCatalog& db) {
  ProjectionOptions unverified;
  unverified.verify = false;
  ASSERT_TRUE(db.DefineSelectionView("S", "Employee").ok());          // lsn 1
  ASSERT_TRUE(db.DropView("S").ok());                                 // lsn 2
  ASSERT_TRUE(db.DefineProjectionView("NV", "Employee", {"SSN"},      // lsn 3
                                      unverified)
                  .ok());
  ASSERT_TRUE(db.DropView("NV").ok());                                // lsn 4
  ASSERT_TRUE(db.DefineProjectionView("V", "Employee", kViewAttrs)    // lsn 5
                  .ok());
  ASSERT_TRUE(db.DefineGeneralizationView("G", "Employee", "Person")  // lsn 6
                  .ok());
  ASSERT_TRUE(db.DefineRenameView("R", "Employee",                    // lsn 7
                                  {{"SSN", "ssn_alias"}})
                  .ok());
  ASSERT_TRUE(db.Collapse().ok());                                    // lsn 8
}

TEST_F(CloneCountTest, MixedWalClonesOncePerVerifiedDerivationAndRun) {
  std::string dir = FreshDir("mixed");
  std::string live;
  {
    auto db = OpenSeeded(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    WriteMixedWal(*db);
    if (HasFatalFailure()) return;
    live = SerializeCatalog(db->catalog());
  }
  {
    uint64_t before = Clones();
    auto reopened = DurableCatalog::Open(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(reopened->recovery().replayed_records, 8u);
    EXPECT_EQ(Clones() - before, 3u + 2u);
    EXPECT_EQ(SerializeCatalog(reopened->catalog()), live);
  }

  // Verified records are re-verified on replay: the first verifier run is
  // the verified projection at lsn 5, not the no-verify one at lsn 3.
  failpoint::Activate("verify.force_failure", 1);
  auto refused = DurableCatalog::Open(dir);
  failpoint::DeactivateAll();
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("WAL replay failed at lsn 5 "),
            std::string::npos)
      << refused.status();
  fs::remove_all(dir);
}

// A CRC-valid record that fails mid-run fails recovery with its lsn, and a
// Reopen over it keeps serving the old tip and epoch untouched.
TEST_F(CloneCountTest, RecordFailingMidRunFailsOpenAndReopenKeepsTip) {
  std::string dir = FreshDir("midrun");
  auto db = OpenSeeded(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        db->DefineSelectionView("S" + std::to_string(i), "Employee").ok());
  }
  ASSERT_EQ(db->last_lsn(), 4u);
  {
    auto wal = WalWriter::Open(dir + "/wal.log");
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_TRUE(wal->Append(5, "drop NoSuchView").ok());
    ASSERT_TRUE(wal->Append(6, "select S9 Employee").ok());
  }
  const Catalog* tip = &db->catalog();
  std::string pre_tip = SerializeCatalog(db->catalog());
  std::string pre_epoch = SerializeCatalog(*db->PinSnapshot());

  auto opened = DurableCatalog::Open(dir);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find(
                "WAL replay failed at lsn 5 ('drop NoSuchView')"),
            std::string::npos)
      << opened.status();

  Status reopened = db->Reopen();
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.message().find("WAL replay failed at lsn 5"),
            std::string::npos)
      << reopened;
  EXPECT_EQ(&db->catalog(), tip);
  EXPECT_EQ(SerializeCatalog(db->catalog()), pre_tip);
  EXPECT_EQ(SerializeCatalog(*db->PinSnapshot()), pre_epoch);
  EXPECT_EQ(db->last_lsn(), 4u);
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
