#ifndef FW_RUNTIME_SPSC_QUEUE_H_
#define FW_RUNTIME_SPSC_QUEUE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/logging.h"

namespace fw {

/// Wait policy of the sharded runtime's spin loops (queue full/empty,
/// quiesce): yield a few times, then sleep — burns little CPU when the
/// other side stalls or the host has fewer cores than shards.
struct SpinBackoff {
  int spins = 0;
  void Pause() {
    if (++spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
};

/// Bounded single-producer single-consumer ring buffer — the hand-off
/// primitive of the sharded runtime (one queue per shard: the session
/// thread produces event batches, the shard's worker consumes them).
/// Wait-free in the common case: one atomic store per side per item, and
/// each slot is touched by exactly one side at a time. Capacity is
/// rounded up to a power of two (RoundUpPow2, checked at construction).
///
/// Exactly one thread may use the producer side (TryPush/Push/Close) and
/// exactly one the consumer side (TryPop/Pop).
///
/// ## Memory-order protocol
///
/// Each cursor has one writer: the producer stores `tail_`, the consumer
/// stores `head_`. Every cross-thread hand-off is one release store paired
/// with one acquire load of the same cursor:
///
///  * producer slot write → `tail_.store(release)` → consumer
///    `tail_.load(acquire)` → consumer slot read (publishes the item);
///  * consumer slot move-out → `head_.store(release)` → producer
///    `head_.load(acquire)` → producer slot reuse (returns the slot);
///  * `closed_.store(release)` → `Pop`'s `closed_.load(acquire)` orders
///    the final racing push before the consumer's last-chance TryPop.
///
/// Same-side loads of a thread's *own* cursor are relaxed: the thread is
/// the only writer of that cursor, so it reads its own last store and no
/// ordering is needed. The relaxed `closed_` load in Push is likewise a
/// producer-side self-check (Close is a producer-side call).
template <typename T>
class SpscQueue {
  // Slots are handed across threads by move; a throwing move would tear a
  // slot mid-hand-off with the cursor already published. The runtime's
  // element type (ShardedExecutor's EventBatch, a columnar batch) is not
  // trivially copyable, so the enforceable contract is nothrow
  // movability; trivially-copyable elements satisfy it for free.
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "SpscQueue elements must be nothrow-move-constructible");
  static_assert(std::is_nothrow_move_assignable_v<T>,
                "SpscQueue elements must be nothrow-move-assignable");

 public:
  /// Smallest power of two >= min_capacity (and >= 1): index masking
  /// (`cursor & mask_`) requires a power-of-two ring size.
  static constexpr size_t RoundUpPow2(size_t min_capacity) {
    size_t capacity = 1;
    while (capacity < min_capacity) capacity <<= 1;
    return capacity;
  }

  explicit SpscQueue(size_t min_capacity) {
    const size_t capacity = RoundUpPow2(min_capacity);
    FW_CHECK((capacity & (capacity - 1)) == 0)
        << "ring capacity must be a power of two, got " << capacity;
    slots_.resize(capacity);
    mask_ = capacity - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  size_t capacity() const { return mask_ + 1; }

  /// Producer. Returns false when the queue is full.
  bool TryPush(T&& item) {
    // Relaxed: tail_ is this thread's own cursor (see protocol above).
    const size_t tail = tail_.load(std::memory_order_relaxed);
    // Acquire: pairs with the consumer's head_ release store, so the
    // consumer's move-out of the slot we are about to overwrite
    // happens-before our write to it.
    if (tail - head_.load(std::memory_order_acquire) > mask_) return false;
    slots_[tail & mask_] = std::move(item);
    // Release: publishes the slot write above to the consumer's matching
    // tail_ acquire load in TryPop.
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Producer. Blocks (yield, then micro-sleep) while the queue is full;
  /// pushing on a closed queue is a checked fatal error.
  void Push(T item) {
    // Relaxed: Close is producer-side, so this reads the producer's own
    // prior store — a self-check, not a synchronization edge.
    FW_CHECK(!closed_.load(std::memory_order_relaxed))
        << "push on closed queue";
    SpinBackoff backoff;
    while (!TryPush(std::move(item))) backoff.Pause();
  }

  /// Producer. No more pushes will follow; unblocks a waiting Pop once the
  /// queue drains.
  void Close() {
    // Release: pairs with Pop's acquire load, ordering every push before
    // the close ahead of the consumer's last-chance drain.
    closed_.store(true, std::memory_order_release);
  }

  /// Consumer. Returns false when the queue is empty.
  bool TryPop(T* out) {
    // Relaxed: head_ is this thread's own cursor (see protocol above).
    const size_t head = head_.load(std::memory_order_relaxed);
    // Acquire: pairs with the producer's tail_ release store, so the
    // producer's slot write happens-before our read of it.
    if (tail_.load(std::memory_order_acquire) == head) return false;
    *out = std::move(slots_[head & mask_]);
    // Release: returns the slot to the producer — pairs with TryPush's
    // head_ acquire load, ordering our move-out before the slot's reuse.
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer. Blocks until an item arrives (true) or the queue is closed
  /// and fully drained (false).
  bool Pop(T* out) {
    SpinBackoff backoff;
    while (true) {
      if (TryPop(out)) return true;
      // Acquire: pairs with Close's release store (protocol above).
      if (closed_.load(std::memory_order_acquire)) {
        // Items pushed before Close are visible after the acquire; one
        // final pop catches a push that raced the close.
        return TryPop(out);
      }
      backoff.Pause();
    }
  }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  /// Cursors are monotonically increasing and wrapped only at indexing
  /// time; padded so the two sides never share a cache line.
  alignas(64) std::atomic<size_t> head_{0};  // Consumer cursor.
  alignas(64) std::atomic<size_t> tail_{0};  // Producer cursor.
  std::atomic<bool> closed_{false};
};

/// Compile-time self-test of the capacity rounding (the ring's masking
/// correctness hangs off it).
static_assert(SpscQueue<int>::RoundUpPow2(0) == 1);
static_assert(SpscQueue<int>::RoundUpPow2(1) == 1);
static_assert(SpscQueue<int>::RoundUpPow2(2) == 2);
static_assert(SpscQueue<int>::RoundUpPow2(3) == 4);
static_assert(SpscQueue<int>::RoundUpPow2(64) == 64);
static_assert(SpscQueue<int>::RoundUpPow2(65) == 128);
static_assert(SpscQueue<int>::RoundUpPow2(1000) == 1024);

}  // namespace fw

#endif  // FW_RUNTIME_SPSC_QUEUE_H_
