#ifndef FW_COMMON_MUTEX_H_
#define FW_COMMON_MUTEX_H_

#include <mutex>  // fw-lint: allow(raw-mutex) — the one wrapping site.

#include "common/annotations.h"

namespace fw {

/// The project's mutex: std::mutex carrying Clang Thread Safety
/// annotations, so lock discipline is checked at compile time under
/// `-Wthread-safety` (see common/annotations.h and DESIGN.md §12).
/// Use this — never raw std::mutex, which the analysis cannot see and
/// fw_lint's raw-mutex rule rejects — and declare the state it protects
/// with FW_GUARDED_BY(mu_).
class FW_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() FW_ACQUIRE() { mu_.lock(); }
  void Unlock() FW_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;  // fw-lint: allow(raw-mutex) — the one wrapping site.
};

/// RAII lock for fw::Mutex (the std::lock_guard of this codebase, with
/// the scoped-capability annotation the analysis needs to track it).
class FW_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) FW_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() FW_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// A virtual capability standing for "executing on a particular thread" —
/// the annotation vocabulary for state that is not mutex-guarded but
/// *thread-owned*, which is how almost all of this runtime synchronizes
/// (DESIGN.md §12). Declare one role per owning context (the session
/// thread, a shard's worker thread), guard the owned members with
/// FW_GUARDED_BY(role), and mark internal helpers FW_REQUIRES(role).
///
/// A role is never "locked"; instead, code asserts it:
///
///  * an entry point that the threading contract pins to the owning
///    thread (ShardedExecutor::Push, the worker loop) calls AssertHeld()
///    first, turning the documented contract into the analysis fact that
///    checks every guarded access downstream;
///  * a handoff site where ownership transfers dynamically calls
///    AssertHeld() with a comment naming the happens-before edge that
///    makes it true (a ring quiesce, a thread join, "the worker does not
///    exist yet" during topology build).
///
/// The assertion is purely compile-time — an empty inline function at
/// runtime — so it documents and checks, but cannot *detect* a violated
/// contract the way a contended mutex would; the TSan CI leg remains the
/// dynamic backstop.
class FW_CAPABILITY("thread role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  /// Declares that the calling context runs on this role's thread (or has
  /// exclusive access via a happens-before edge — comment which).
  void AssertHeld() const FW_ASSERT_CAPABILITY(this) {}
};

}  // namespace fw

#endif  // FW_COMMON_MUTEX_H_
