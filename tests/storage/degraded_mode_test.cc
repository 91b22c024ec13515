// Degraded-mode semantics (durable_catalog.h): a failed fsync — of the WAL,
// of a failed append's truncation undo, or of a snapshot temp file — drops
// the DurableCatalog into read-only degraded mode: mutations refuse with a
// clear Status, reads keep serving, metrics/flight recorder log the
// transition, and Reopen() re-validates on-disk state before leaving it.
// Plain write errors whose undo holds must NOT degrade.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "obs/obs.h"
#include "storage/catalog_snapshot.h"
#include "storage/durable_catalog.h"
#include "storage/faulty_env.h"
#include "testing/fixtures.h"

namespace tyder::storage {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir =
      (fs::temp_directory_path() / ("tyder_degraded_test_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

Result<DurableCatalog> OpenSeeded(const std::string& dir, Env* env = nullptr) {
  auto fx = testing::BuildPersonEmployee();
  if (!fx.ok()) return fx.status();
  TYDER_ASSIGN_OR_RETURN(DurableCatalog db, DurableCatalog::Open(dir, env));
  TYDER_RETURN_IF_ERROR(db.Seed(Catalog(std::move(fx->schema))));
  TYDER_ASSIGN_OR_RETURN(
      const ViewDef* view,
      db.DefineProjectionView("BaseView", "Employee",
                              {"SSN", "date_of_birth", "pay_rate"}));
  (void)view;
  return db;
}

uint64_t Counter(const char* name) {
#if TYDER_OBS_ENABLED
  return obs::MetricsRegistry::Global().CounterValue(name);
#else
  (void)name;
  return 0;
#endif
}

class DegradedModeTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DeactivateAll(); }
};

TEST_F(DegradedModeTest, WalFsyncFailureEntersReadOnlyDegradedMode) {
  std::string dir = FreshDir("wal_fsync");
  auto db = OpenSeeded(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  std::string pre = SerializeCatalog(db->catalog());
  uint64_t entries_before = Counter("storage.degraded_entries");
  uint64_t io_errors_before = Counter("storage.io_errors");

  failpoint::Activate("storage.env.sync", 1);
  auto faulted = db->DefineProjectionView("V", "Person", {"SSN"});
  failpoint::DeactivateAll();
  ASSERT_FALSE(faulted.ok());
  ASSERT_TRUE(db->degraded());

  // The transition is observable.
#if TYDER_OBS_ENABLED
  EXPECT_EQ(Counter("storage.degraded_entries"), entries_before + 1);
  EXPECT_GT(Counter("storage.io_errors"), io_errors_before);
#else
  (void)entries_before;
  (void)io_errors_before;
#endif

  // Mutations refuse with a clear, actionable status...
  auto refused = db->DefineProjectionView("V", "Person", {"SSN"});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("degraded"), std::string::npos);
  EXPECT_NE(refused.status().message().find("Reopen"), std::string::npos);
  EXPECT_EQ(db->DropView("BaseView").code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(db->Collapse().ok());
  EXPECT_EQ(db->Compact().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db->degraded_status().code(), StatusCode::kFailedPrecondition);

  // ...while reads keep serving the last consistent state.
  EXPECT_EQ(SerializeCatalog(db->catalog()), pre);
  EXPECT_TRUE(db->catalog().FindView("BaseView").ok());

  // Reopen re-validates from disk and lifts degraded mode.
  ASSERT_TRUE(db->Reopen().ok());
  EXPECT_FALSE(db->degraded());
  auto retried = db->DefineProjectionView("V2", "Person", {"SSN"});
  EXPECT_TRUE(retried.ok()) << retried.status();
}

// Satellite fix for the swallowed fsync at the old wal.cc:181: when a failed
// append's ftruncate undo cannot run, the tail may be torn and the store
// must degrade instead of pretending the undo held.
TEST_F(DegradedModeTest, FailedAppendUndoTruncateFailureDegrades) {
  std::string dir = FreshDir("undo_truncate");
  auto db = OpenSeeded(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  std::string pre = SerializeCatalog(db->catalog());

  failpoint::Activate("storage.env.short_write", 1);  // the append tears
  failpoint::Activate("storage.env.truncate", 1);     // the undo fails
  auto faulted = db->DefineProjectionView("V", "Person", {"SSN"});
  failpoint::DeactivateAll();
  ASSERT_FALSE(faulted.ok());
  EXPECT_TRUE(db->degraded());
  EXPECT_EQ(SerializeCatalog(db->catalog()), pre);

  // Reopen repairs the torn tail and recovers the pre-state.
  ASSERT_TRUE(db->Reopen().ok());
  EXPECT_FALSE(db->degraded());
  EXPECT_EQ(SerializeCatalog(db->catalog()), pre);
  EXPECT_FALSE(db->recovery().warnings.empty());
  EXPECT_NE(db->recovery().warnings[0].find("torn WAL tail"),
            std::string::npos);
  EXPECT_TRUE(db->DefineProjectionView("V", "Person", {"SSN"}).ok());
}

// ...and when the undo's ftruncate succeeds but its fsync fails, the
// truncation is not durably known either: degrade.
TEST_F(DegradedModeTest, FailedAppendUndoFsyncFailureDegrades) {
  std::string dir = FreshDir("undo_fsync");
  auto db = OpenSeeded(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  std::string pre = SerializeCatalog(db->catalog());

  failpoint::Activate("storage.env.append", 1);  // the append fails outright
  failpoint::Activate("storage.env.sync", 1);    // the undo's fsync fails
  auto faulted = db->DefineProjectionView("V", "Person", {"SSN"});
  failpoint::DeactivateAll();
  ASSERT_FALSE(faulted.ok());
  EXPECT_TRUE(db->degraded());

  ASSERT_TRUE(db->Reopen().ok());
  EXPECT_EQ(SerializeCatalog(db->catalog()), pre);
  EXPECT_TRUE(db->DefineProjectionView("V", "Person", {"SSN"}).ok());
}

// A plain write error whose undo holds must NOT degrade: the op fails,
// state is unchanged, and a retry succeeds once the disk recovers.
TEST_F(DegradedModeTest, WriteErrorWithDurableUndoStaysLive) {
  std::string dir = FreshDir("live_retry");
  auto db = OpenSeeded(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  std::string pre = SerializeCatalog(db->catalog());

  failpoint::Activate("storage.env.append", 1);
  auto faulted = db->DefineProjectionView("V", "Person", {"SSN"});
  failpoint::DeactivateAll();
  ASSERT_FALSE(faulted.ok());
  EXPECT_FALSE(db->degraded());
  EXPECT_EQ(SerializeCatalog(db->catalog()), pre);
  EXPECT_TRUE(db->DefineProjectionView("V", "Person", {"SSN"}).ok());
}

TEST_F(DegradedModeTest, SnapshotFsyncFailureDegradesCompaction) {
  std::string dir = FreshDir("snapshot_fsync");
  auto db = OpenSeeded(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  std::string pre = SerializeCatalog(db->catalog());

  failpoint::Activate("storage.env.sync", 1);  // the snapshot temp file fsync
  Status compacted = db->Compact();
  failpoint::DeactivateAll();
  ASSERT_FALSE(compacted.ok());
  EXPECT_TRUE(db->degraded());
  EXPECT_EQ(SerializeCatalog(db->catalog()), pre);

  // The half-written temp snapshot was cleaned up.
  auto names = Env::Posix().ListDir(dir);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }

  ASSERT_TRUE(db->Reopen().ok());
  EXPECT_EQ(SerializeCatalog(db->catalog()), pre);
  EXPECT_TRUE(db->Compact().ok());
}

// Satellite: disk-full compaction. A byte quota that exhausts mid-snapshot
// fails Compact with ENOSPC; the old snapshot remains the recovery source,
// the temp file is cleaned up, the catalog keeps serving reads, and the
// database is NOT degraded (no fsync lied) — lifting the quota lets a
// retry succeed.
TEST_F(DegradedModeTest, DiskFullCompactionKeepsServingReads) {
  std::string dir = FreshDir("disk_full");
  FaultyEnv env;
  auto db = OpenSeeded(dir, &env);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->DefineProjectionView("V", "Person", {"SSN"}).ok());
  std::string pre = SerializeCatalog(db->catalog());

  env.SetByteQuota(64);  // a snapshot is far bigger: exhausts mid-write
  Status full = db->Compact();
  ASSERT_FALSE(full.ok());
  EXPECT_TRUE(env.fault_fired());
  EXPECT_NE(full.message().find("ENOSPC"), std::string::npos);
  EXPECT_FALSE(db->degraded());

  // Temp file cleaned up; the old snapshot + WAL stay the recovery source.
  auto names = Env::Posix().ListDir(dir);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }

  // Reads keep serving...
  EXPECT_EQ(SerializeCatalog(db->catalog()), pre);

  // ...recovery from the old snapshot + WAL reproduces the same state...
  {
    auto reopened = DurableCatalog::Open(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(SerializeCatalog(reopened->catalog()), pre);
  }

  // ...and once space frees up, compaction succeeds.
  env.ClearFaults();
  EXPECT_TRUE(db->Compact().ok());
  EXPECT_EQ(SerializeCatalog(db->catalog()), pre);
}

TEST_F(DegradedModeTest, ReopenWhileHealthyIsANoOpRecovery) {
  std::string dir = FreshDir("healthy_reopen");
  auto db = OpenSeeded(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  std::string pre = SerializeCatalog(db->catalog());
  uint64_t lsn = db->last_lsn();
  ASSERT_TRUE(db->Reopen().ok());
  EXPECT_FALSE(db->degraded());
  EXPECT_EQ(SerializeCatalog(db->catalog()), pre);
  EXPECT_EQ(db->last_lsn(), lsn);
}

TEST_F(DegradedModeTest, ReopenFailureStaysDegraded) {
  std::string dir = FreshDir("reopen_fails");
  FaultyEnv env;
  auto db = OpenSeeded(dir, &env);
  ASSERT_TRUE(db.ok()) << db.status();

  env.ResetCounters();
  env.InjectAt(FaultyEnv::FaultKind::kSyncFail, 0);
  auto faulted = db->DefineProjectionView("V", "Person", {"SSN"});
  ASSERT_FALSE(faulted.ok());
  ASSERT_TRUE(db->degraded());

  // The disk is still broken: Reopen must fail and stay degraded.
  env.ResetCounters();
  env.InjectAt(FaultyEnv::FaultKind::kError, 0);
  Status reopened = db->Reopen();
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.message().find("staying in degraded"), std::string::npos);
  EXPECT_TRUE(db->degraded());
  EXPECT_FALSE(db->DefineProjectionView("V", "Person", {"SSN"}).ok());

  // Disk recovers: now Reopen lifts degraded mode.
  env.ClearFaults();
  ASSERT_TRUE(db->Reopen().ok());
  EXPECT_FALSE(db->degraded());
}

// Regression for the degraded-mode × group-commit seam: Reopen() racing
// committers that are queued in the GroupWal. The old Reopen move-assigned
// *this, destroying the CommitState (writer lock, queue, epochs) under any
// waiter still parked in GroupWal::Wait — a use-after-free the sanitizer
// runs would catch. The in-place-adoption Reopen must instead guarantee:
// every waiter gets a definitive ack or nack, Reopen itself serializes
// cleanly behind them, and recovery yields exactly the acked mutations —
// none lost, none duplicated.
TEST_F(DegradedModeTest, ReopenWithQueuedCommittersAcksOrNacksEveryWaiter) {
  std::string dir = FreshDir("reopen_seam");
  auto db = OpenSeeded(dir);
  ASSERT_TRUE(db.ok()) << db.status();

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 32;
  std::atomic<int> workers_left{kThreads};
  std::mutex ledger_mu;
  // Each unique view name gets a verdict the final state must honor:
  //   kAcked          fsync'd and published — must survive recovery
  //   kNacked         definitively never written (refused while degraded or
  //                   stalled, or drain-failed behind a failed batch) —
  //                   must be absent
  //   kIndeterminate  its own batch's fsync failed; the bytes may or may
  //                   not be durable (fsyncgate forbids undoing them), and
  //                   recovery is the arbiter — either outcome is legal
  enum class Verdict { kAcked, kNacked, kIndeterminate };
  std::map<std::string, Verdict> ledger;

  auto classify = [](const Status& s) {
    if (s.ok()) return Verdict::kAcked;
    const std::string& m = s.message();
    if (m.find("degraded") != std::string::npos ||
        m.find("stalled") != std::string::npos ||
        m.find("never written") != std::string::npos)
      return Verdict::kNacked;
    return Verdict::kIndeterminate;
  };

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int j = 0; j < kOpsPerThread; ++j) {
        std::string name = "Seam_" + std::to_string(t) + "_" +
                           std::to_string(j);
        auto r = db->DefineProjectionView(name, "Person", {"SSN"});
        std::lock_guard<std::mutex> lock(ledger_mu);
        ledger.emplace(name, classify(r.status()));
      }
      workers_left.fetch_sub(1);
    });
  }

  // Repeatedly break the disk under the racing committers, then Reopen()
  // with the rest of them still in flight — some queued in the GroupWal,
  // some blocked on the writer lock behind the recovery itself.
  int degrade_cycles = 0;
  while (workers_left.load() > 0) {
    failpoint::Activate("storage.env.sync", 1);
    // degraded_now(), not degraded(): the committers write the degraded
    // status concurrently with this poll.
    while (!db->degraded_now() && workers_left.load() > 0)
      std::this_thread::yield();
    if (db->degraded_now()) {
      ++degrade_cycles;
      // The one-shot fault may already be consumed, but Reopen's own
      // recovery I/O can still fail for other reasons; retry until clean.
      while (!db->Reopen().ok()) std::this_thread::yield();
    }
  }
  for (auto& w : workers) w.join();
  failpoint::DeactivateAll();
  // The fault actually exercised the seam (each one-shot sync failure
  // degrades, and every committer then queued is drain-failed).
  EXPECT_GT(degrade_cycles, 0);
  ASSERT_EQ(ledger.size(),
            static_cast<size_t>(kThreads) * kOpsPerThread);

  // Leave the store healthy, then prove recovery from disk honors every
  // verdict: every definitive ack present, every definitive nack absent,
  // indeterminate ops free to go either way. (A lost record would drop an
  // acked view; a duplicated record would make replay re-define a view and
  // fail the Open outright.)
  if (db->degraded()) {
    ASSERT_TRUE(db->Reopen().ok());
  }
  auto recovered = DurableCatalog::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  for (const auto& [name, verdict] : ledger) {
    bool present = recovered->catalog().FindView(name).ok();
    if (verdict == Verdict::kAcked) {
      EXPECT_TRUE(present) << name << " was acked but lost";
    } else if (verdict == Verdict::kNacked) {
      EXPECT_FALSE(present) << name << " was definitively nacked but kept";
    }
  }
  // And the in-place-reopened instance serves the same state.
  EXPECT_EQ(SerializeCatalog(db->catalog()),
            SerializeCatalog(recovered->catalog()));
}

}  // namespace
}  // namespace tyder::storage
