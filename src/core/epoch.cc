#include "core/epoch.h"

#include <limits>
#include <set>
#include <vector>

#include "obs/obs.h"

namespace tyder {

namespace epoch_internal {

namespace {

// One announce slot per cache line (the obs/sharded_counter.h layout): a
// pinned reader writes only its own line, so the wait-free path never
// bounces a line between cores. 0 means "not pinned".
constexpr size_t kAnnounceSlots = 256;
struct alignas(64) AnnounceSlotCell {
  std::atomic<uint64_t> announced{0};
};
AnnounceSlotCell g_slots[kAnnounceSlots];

// Epoch 0 is reserved as the "not pinned" sentinel, so the counter starts
// at 1 and the first retire tag is >= 1.
std::atomic<uint64_t> g_epoch{1};

// Slot leasing. Unlike obs::internal::AssignShardSlot (monotonic ordinals,
// never reused — fine for counters, where an abandoned slot just holds a
// stale partial sum), announce slots MUST be recycled: a leaked slot holding
// a stale announce would block reclamation forever, and the stress suites
// churn hundreds of short-lived reader threads. A thread leases a slot on
// its first pin and its thread-exit destructor returns it to the free list.
std::mutex g_slot_mu;
std::vector<size_t> g_free_slots;
size_t g_next_unleased_slot = 0;

// Overflow pins (pool exhausted): a mutex-guarded multiset of announces
// whose minimum is mirrored into an atomic the reclaim scan reads. The
// mirror store is seq_cst, so it takes the announce's place in the safety
// argument of the header comment.
std::mutex g_overflow_mu;
std::multiset<uint64_t> g_overflow_announces;
std::atomic<uint64_t> g_overflow_min{0};

struct SlotLease {
  size_t index = kOverflowSlot;

  SlotLease() {
    std::lock_guard<std::mutex> lock(g_slot_mu);
    if (!g_free_slots.empty()) {
      index = g_free_slots.back();
      g_free_slots.pop_back();
    } else if (g_next_unleased_slot < kAnnounceSlots) {
      index = g_next_unleased_slot++;
    }
  }

  ~SlotLease() {
    if (index == kOverflowSlot) return;
    // The owning thread is exiting, so no pin of this thread is live and
    // the slot's announce is already 0.
    std::lock_guard<std::mutex> lock(g_slot_mu);
    g_free_slots.push_back(index);
  }
};

}  // namespace

size_t ThisThreadAnnounceSlot() {
  thread_local SlotLease lease;
  return lease.index;
}

// seq_cst, not relaxed: the safety argument needs the epoch read to precede
// the bump in the single total order whenever the subsequent pointer load
// precedes the publish — only then is the announce guaranteed <= the retire
// tag of any snapshot the pin can actually hold. (A seq_cst load is free on
// x86 and the pin path is still wait-free.)
uint64_t CurrentEpoch() { return g_epoch.load(std::memory_order_seq_cst); }

uint64_t BumpEpoch() { return g_epoch.fetch_add(1, std::memory_order_seq_cst); }

bool AnnounceSlot(size_t slot, uint64_t e) {
  std::atomic<uint64_t>& cell = g_slots[slot].announced;
  // A non-zero announce belongs to an enclosing pin on this same thread and
  // is <= e (the epoch counter is monotone), i.e. strictly more
  // conservative — keep it.
  if (cell.load(std::memory_order_relaxed) != 0) return false;
  cell.store(e, std::memory_order_seq_cst);
  return true;
}

void ClearSlot(size_t slot) {
  g_slots[slot].announced.store(0, std::memory_order_release);
}

void AnnounceOverflow(uint64_t e) {
  std::lock_guard<std::mutex> lock(g_overflow_mu);
  g_overflow_announces.insert(e);
  g_overflow_min.store(*g_overflow_announces.begin(),
                       std::memory_order_seq_cst);
}

void ClearOverflow(uint64_t e) {
  std::lock_guard<std::mutex> lock(g_overflow_mu);
  g_overflow_announces.erase(g_overflow_announces.find(e));
  g_overflow_min.store(
      g_overflow_announces.empty() ? 0 : *g_overflow_announces.begin(),
      std::memory_order_release);
}

uint64_t MinAnnounce() {
  uint64_t min = std::numeric_limits<uint64_t>::max();
  for (const AnnounceSlotCell& cell : g_slots) {
    uint64_t a = cell.announced.load(std::memory_order_seq_cst);
    if (a != 0 && a < min) min = a;
  }
  uint64_t ovf = g_overflow_min.load(std::memory_order_seq_cst);
  if (ovf != 0 && ovf < min) min = ovf;
  return min == std::numeric_limits<uint64_t>::max() ? 0 : min;
}

}  // namespace epoch_internal

EpochCatalog::Pin::Pin(const EpochCatalog& epochs) {
  uint64_t e = epoch_internal::CurrentEpoch();
  slot_ = epoch_internal::ThisThreadAnnounceSlot();
  if (slot_ != epoch_internal::kOverflowSlot) {
    owns_slot_ = epoch_internal::AnnounceSlot(slot_, e);
  } else {
    epoch_internal::AnnounceOverflow(e);
    announced_ = e;
  }
  // The announce above is seq_cst, so this load cannot return a snapshot a
  // writer scan already considered reclaimable (header comment).
  node_ = epochs.current_.load(std::memory_order_seq_cst);
}

EpochCatalog::Pin::~Pin() {
  if (slot_ != epoch_internal::kOverflowSlot) {
    if (owns_slot_) epoch_internal::ClearSlot(slot_);
  } else {
    epoch_internal::ClearOverflow(announced_);
  }
}

EpochCatalog::~EpochCatalog() {
  Node* node = current_.load(std::memory_order_relaxed);
  delete node;
  node = retired_head_;
  while (node != nullptr) {
    Node* next = node->retire_next;
    delete node;
    node = next;
  }
}

void EpochCatalog::Publish(std::shared_ptr<const Catalog> snapshot,
                           uint64_t version) {
  TYDER_SPAN("Epoch.Publish");
  std::lock_guard<std::mutex> lock(writer_mu_);
  Node* old = current_.load(std::memory_order_relaxed);
  // Drop only strictly-stale publishes. Same-version republish replaces:
  // Seed publishes the seeded catalog at the same (zero) version the empty
  // recovered catalog was published at.
  if (old != nullptr && version < old->version) return;  // stale publish
  Node* node = new Node(std::move(snapshot), version);
  current_.store(node, std::memory_order_seq_cst);
  uint64_t tag = epoch_internal::BumpEpoch();
  TYDER_COUNT("epoch.publishes");
  if (old != nullptr) {
    old->retire_tag = tag;
    old->retire_next = retired_head_;
    retired_head_ = old;
    TYDER_COUNT("epoch.retires");
  }
  ReclaimLocked();
}

size_t EpochCatalog::retired_pending() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  size_t n = 0;
  for (const Node* node = retired_head_; node != nullptr;
       node = node->retire_next) {
    ++n;
  }
  return n;
}

size_t EpochCatalog::TryReclaim() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return ReclaimLocked();
}

size_t EpochCatalog::ReclaimLocked() {
  if (retired_head_ == nullptr) return 0;
  uint64_t min = epoch_internal::MinAnnounce();
  size_t freed = 0;
  Node** link = &retired_head_;
  while (*link != nullptr) {
    Node* node = *link;
    // Safe once every live announce exceeds the tag (no announce at all
    // means no reader holds anything).
    if (min == 0 || node->retire_tag < min) {
      *link = node->retire_next;
      delete node;
      ++freed;
    } else {
      link = &node->retire_next;
    }
  }
  if (freed > 0) {
    reclaimed_.fetch_add(freed, std::memory_order_relaxed);
    TYDER_COUNT_N("epoch.reclaims", freed);
  }
  return freed;
}

}  // namespace tyder
