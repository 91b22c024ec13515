// Append-only, checksummed write-ahead log of committed catalog mutations.
//
// Record layout (all integers little-endian):
//
//   offset  size  field
//   0       4     payload length n
//   4       4     CRC32C over (lsn bytes + payload)
//   8       8     log sequence number (lsn)
//   16      n     payload (one logical mutation, storage/durable_catalog.h)
//
// Append semantics: the record is written and fsync'd (through storage::Env)
// before Append returns OK. The durable catalog appends through GroupWal
// (below) and publishes an operation's catalog — its clone-and-swap draft,
// handed over by pointer — only after the batch's fsync, so an operation is
// never published in memory before its record is on stable storage.
//
// Failure semantics: on a failed append the writer truncates the file back
// to its pre-call length and fsyncs the truncation, so a retry starts from
// a clean, durable tail. If the undo itself cannot be made durable — the
// ftruncate fails, or its fsync fails — the writer is POISONED: the on-disk
// tail may be torn and the handle can no longer vouch for durability, so
// every later Append/TruncateAll refuses with the original failure. Same if
// the record's own fsync fails (see env.h on why a failed fsync must never
// be retried). A poisoned WAL puts the owning DurableCatalog into read-only
// degraded mode; recovery repairs the tail at the next open.
//
// Read semantics (recovery): records are validated front to back. A torn
// tail — header or payload cut short, or a checksum mismatch on the final
// record — is the signature of a crash mid-append: ReadWal reports the
// valid prefix plus a warning, and RepairTornTail truncates the file so the
// next append lands cleanly. A checksum mismatch on a record that is *not*
// the last one cannot be a torn write and is rejected as corruption with a
// byte-offset diagnostic; recovery must not guess past it.
//
// Crash-injection points (all registered in common/failpoint.cc):
//   storage.wal.torn_write    only a prefix of the record reaches the file
//   storage.wal.after_append  full record written, fsync never happens
//   storage.wal.mid_fsync     crash during fsync (no error returned)
//   storage.wal.after_sync    record durable, but Append fails afterwards
// plus the error-return storage.env.* points (env.h).

#ifndef TYDER_STORAGE_WAL_H_
#define TYDER_STORAGE_WAL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/env.h"

namespace tyder::storage {

struct WalRecord {
  uint64_t lsn = 0;
  std::string payload;
};

struct WalReadResult {
  std::vector<WalRecord> records;
  // Byte length of the valid record prefix (== file size when intact).
  uint64_t valid_bytes = 0;
  // Non-empty iff a torn/partial tail record was dropped.
  std::string torn_tail_warning;
};

// Parses `bytes` (the full log file contents). Mid-log corruption is an
// error; a torn tail is reported in the result, never an error.
Result<WalReadResult> ParseWal(std::string_view bytes);

// Reads and parses the log at `path`. A missing file is an empty log.
// `env` == nullptr means Env::Posix().
Result<WalReadResult> ReadWal(const std::string& path, Env* env = nullptr);

// Truncates the log at `path` to `valid_bytes` (torn-tail repair).
Status RepairTornTail(const std::string& path, uint64_t valid_bytes,
                      Env* env = nullptr);

class WalWriter {
 public:
  // Opens (creating if absent) the log for appending through `env`
  // (nullptr == Env::Posix()).
  static Result<WalWriter> Open(const std::string& path, Env* env = nullptr);

  WalWriter(WalWriter&&) = default;
  WalWriter& operator=(WalWriter&&) = default;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Appends one record and fsyncs the file. On any failure the in-memory
  // operation being logged must not commit; Append truncates the file back
  // to its pre-call length and fsyncs the truncation so a retry starts from
  // a clean durable tail. If the undo cannot be made durable the writer is
  // poisoned (see file comment).
  Status Append(uint64_t lsn, std::string_view payload);

  // Appends `records` as one contiguous write followed by ONE fsync — the
  // group-commit primitive: N commits, one sync. Failure semantics are
  // identical to Append's, for the batch as a whole: on any failure none of
  // the records is acknowledged, the file is durably truncated back to its
  // pre-call length (so recovery sees a clean prefix of *whole batches*, and
  // a torn mid-batch write repairs like any torn tail), and an un-undoable
  // failure or a failed fsync poisons the writer. The storage.wal.* fault
  // points fire exactly as on the single-record path.
  Status AppendBatch(const std::vector<WalRecord>& records);

  // Empties the log (compaction: the snapshot now covers every record).
  Status TruncateAll();

  // True once this writer can no longer vouch for durability (failed fsync
  // or failed append undo). A poisoned writer refuses all mutation.
  bool poisoned() const { return !poison_.ok(); }
  const Status& poison_status() const { return poison_; }

 private:
  explicit WalWriter(std::unique_ptr<WritableFile> file)
      : file_(std::move(file)) {}

  Status AppendUnguarded(const std::vector<WalRecord>& records);
  void Poison(const Status& cause);

  std::unique_ptr<WritableFile> file_;
  Status poison_;
};

// --- Group commit ----------------------------------------------------------
//
// GroupWal amortizes fsync cost across concurrent committers. Each committer
// Enqueue()s its already-sequenced record (under the owner's writer lock, so
// lsns enter the queue in order), releases the lock, and Wait()s. The first
// waiter to find no leader active becomes the LEADER: it seals up to
// max_batch queued records, optionally lingers max_wait_us for stragglers,
// writes them through WalWriter::AppendBatch — one write, one fsync — then
// invokes on_batch_durable (the owner publishes the batch's epoch snapshot
// here) BEFORE waking any waiter, so a committer that returns OK can
// immediately observe its own write in the published epoch. While the leader
// is inside fsync, new committers pile into the queue; the next leader takes
// them all in one batch. That opportunistic window means a lone committer
// pays exactly one fsync (no added latency), while N contending committers
// converge on ~2 fsyncs per N commits.
//
// Failure: a failed batch STALLS the group. Every waiter of the failed batch
// observes the failure, every record still queued behind it is drain-failed
// (it was sequenced against in-memory state that never became durable —
// letting it reach the WAL would persist a record whose predecessors do not
// exist), and new Enqueues are refused until the owner calls
// ConsumeStallIfPending() under its writer lock and rolls its in-memory tip
// back to the last durable state. If the failure poisoned the WalWriter
// (failed fsync / un-undoable undo), the owner additionally degrades —
// exactly the single-record fsyncgate rule, observed by every waiter.
//
// Instrumented with storage.group_commit.{batch_size,stall_ns} histograms
// and storage.group_commit.{batches,records,syncs,failed_batches} counters.

struct GroupCommitOptions {
  // Max records sealed into one batch.
  size_t max_batch = 64;
  // How long a leader lingers for stragglers once it holds a non-full
  // batch. 0 (default) is pure opportunistic batching: never wait — the
  // queue that builds up behind an in-flight fsync IS the next batch.
  uint32_t max_wait_us = 0;
};

class GroupWal {
 public:
  // `wal` must outlive the GroupWal and is written only by batch leaders.
  explicit GroupWal(WalWriter* wal, GroupCommitOptions options = {});

  // Leader-side hook, invoked with the last lsn of each durable batch after
  // its fsync and before any of its waiters wake. Must not call back into
  // Enqueue/Wait. Set once, before the first Enqueue.
  void set_on_batch_durable(std::function<void(uint64_t last_lsn)> fn) {
    on_batch_durable_ = std::move(fn);
  }

  // A committer's handle on its queued record. Must stay alive (and at a
  // stable address) until Wait() returns.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

   private:
    friend class GroupWal;
    WalRecord record_;
    Status result_;
    bool done_ = false;
    std::chrono::steady_clock::time_point enqueued_at_;
  };

  // Queues the record. Caller must hold its own writer lock (serializing lsn
  // assignment) and must call Wait(ticket) after releasing it. Refuses while
  // stalled: the in-memory state this record was sequenced against is not
  // durable.
  Status Enqueue(Ticket& ticket, uint64_t lsn, std::string payload);

  // Blocks until the ticket's record is durable or its batch failed; the
  // calling thread may serve as leader for one or more batches meanwhile.
  Status Wait(Ticket& ticket);

  // Single-record convenience: Enqueue + Wait. Only safe when the caller's
  // writer lock is NOT held (lone-committer paths and tests).
  Status Commit(uint64_t lsn, std::string payload);

  bool stalled() const;
  // If a batch failure is pending, clears it and returns true — the caller
  // (holding its writer lock) must then roll its tip back to the last
  // durable state before sequencing any new record. Exactly one caller
  // observes true per failure.
  bool ConsumeStallIfPending();

  // Points future batches at a fresh WalWriter (DurableCatalog::Reopen
  // replaces a poisoned handle with the recovered one). Caller must hold its
  // writer lock AND have Quiesce()d first: the queue must be empty and no
  // leader in flight. The GroupWal object itself — its mutex, cv and any
  // waiter still returning from Wait() — stays alive across the swap, which
  // is exactly why Reopen adopts recovered state in place instead of
  // destroying the commit pipeline under queued committers.
  void ResetWal(WalWriter* wal);

  // Blocks until the queue is empty and no leader is in flight (all
  // on_batch_durable callbacks returned). With the owner's writer lock held
  // this quiesces the log for compaction/seeding. A pending stall is NOT
  // consumed — check ConsumeStallIfPending afterwards.
  void Quiesce();

 private:
  void LeadBatches(std::unique_lock<std::mutex>& lock, Ticket& own);

  WalWriter* wal_;
  GroupCommitOptions options_;
  std::function<void(uint64_t)> on_batch_durable_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Ticket*> queue_;
  bool leader_active_ = false;
  bool stall_pending_ = false;  // set on batch failure, cleared by consume
  Status stall_cause_;
};

}  // namespace tyder::storage

#endif  // TYDER_STORAGE_WAL_H_
