#ifndef FW_COMMON_ANNOTATIONS_H_
#define FW_COMMON_ANNOTATIONS_H_

/// Clang Thread Safety Analysis annotations (DESIGN.md §12).
///
/// These macros attach compile-time lock-discipline contracts to types,
/// data members, and functions: which capability (a mutex, or a thread
/// role) guards which state, and which functions require, acquire, or
/// release it. Under Clang, `-Wthread-safety` (always on for Clang builds,
/// promoted to an error by FW_WERROR — the CI static-analysis job) rejects
/// any access that violates a contract; under other compilers every macro
/// expands to nothing, so the annotations cost nothing and constrain
/// nothing at runtime anywhere.
///
/// The vocabulary follows the Clang documentation's canonical mutex.h
/// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html), prefixed FW_
/// to keep the project's macro namespace. The annotated primitives that
/// carry these attributes — fw::Mutex, fw::MutexLock, fw::ThreadRole —
/// live in common/mutex.h; annotate with *those*, never with raw
/// std::mutex (fw_lint's raw-mutex rule enforces this).

#if defined(__clang__) && !defined(SWIG)
#define FW_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define FW_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op
#endif

/// Declares that a type is a capability (lockable): fw::Mutex, or a
/// fw::ThreadRole standing for "running on thread X". The string names
/// the capability kind in diagnostics.
#define FW_CAPABILITY(x) FW_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

/// Declares an RAII type whose constructor acquires and destructor
/// releases a capability (fw::MutexLock).
#define FW_SCOPED_CAPABILITY FW_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

/// The data member is protected by the given capability: reads require it
/// held (at least shared), writes require it held exclusively.
#define FW_GUARDED_BY(x) FW_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

/// The data *pointed to* by this pointer member is protected by the given
/// capability (the pointer itself is not).
#define FW_PT_GUARDED_BY(x) FW_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

/// The function may only be called while holding the capability
/// exclusively (it does not acquire it).
#define FW_REQUIRES(...) \
  FW_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))

/// Shared (reader) form of FW_REQUIRES.
#define FW_REQUIRES_SHARED(...) \
  FW_THREAD_ANNOTATION_ATTRIBUTE_(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability and holds it on return.
#define FW_ACQUIRE(...) \
  FW_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))

/// The function releases a capability the caller held.
#define FW_RELEASE(...) \
  FW_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))

/// The function may not be called while holding the capability
/// (deadlock-prevention contract for functions that acquire it).
#define FW_EXCLUDES(...) \
  FW_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

/// Tells the analysis the capability *is* held at this point because of a
/// fact established dynamically, outside the lexical lock structure — the
/// project's sanctioned alternative to turning the analysis off. Every
/// call site must carry a comment naming the happens-before edge that
/// justifies it (a quiesce, a thread join, "the worker does not exist
/// yet"). See fw::ThreadRole.
#define FW_ASSERT_CAPABILITY(x) \
  FW_THREAD_ANNOTATION_ATTRIBUTE_(assert_capability(x))

/// The function returns a reference to a capability-protected object.
#define FW_RETURN_CAPABILITY(x) \
  FW_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

/// Escape hatch: the function body is not analyzed. Budgeted — the
/// acceptance bar for this codebase is at most two, each with a written
/// justification. Prefer FW_ASSERT_CAPABILITY, which keeps the rest of
/// the function checked.
#define FW_NO_THREAD_SAFETY_ANALYSIS \
  FW_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

#endif  // FW_COMMON_ANNOTATIONS_H_
