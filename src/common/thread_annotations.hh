/**
 * @file
 * Clang Thread Safety Analysis vocabulary + thin annotated mutex
 * wrappers (DESIGN.md §18).
 *
 * The WG_* macros map onto clang's `-Wthread-safety` attributes and
 * expand to nothing on every other compiler, so the annotations are
 * pure compile-time documentation that GCC builds ignore and the
 * clang-tsa preset enforces (`-Werror=thread-safety`; the seeded
 * canary in tests/thread_safety_canary.cc proves the gate can fail).
 *
 * Annotation discipline for new code:
 *   - every field shared between threads carries WG_GUARDED_BY(mu_);
 *   - every helper that assumes the lock is held carries
 *     WG_REQUIRES(mu_) (and, by this tree's convention, a name ending
 *     in "Locked" — wglint rule C2 understands both spellings);
 *   - lock with the RAII MutexLock. Mutex has no lock()/unlock() and
 *     its native handle is private, so a raw lock does not compile
 *     under any compiler (tests/raw_lock_canary.cc and
 *     tests/native_handle_canary.cc are the compile-fail canaries).
 *
 * The wrappers are deliberately thin: Mutex is a std::mutex that
 * carries the CAPABILITY attribute, MutexLock is a std::unique_lock
 * that carries SCOPED_CAPABILITY (with annotated mid-scope
 * unlock()/relock(), which runInternal-style single-flight code
 * needs), and CondVar adapts std::condition_variable to MutexLock.
 * None of them add state or change locking behaviour, so swapping
 * them in is bit-identical to the raw std:: types they wrap.
 */

#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define WG_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define WG_THREAD_ANNOTATION(x) // no-op outside clang
#endif

/** Marks a class as a lockable capability (mutex-like). */
#define WG_CAPABILITY(x) WG_THREAD_ANNOTATION(capability(x))

/** Marks an RAII class whose lifetime equals a critical section. */
#define WG_SCOPED_CAPABILITY WG_THREAD_ANNOTATION(scoped_lockable)

/** Field may only be accessed while holding the given capability. */
#define WG_GUARDED_BY(x) WG_THREAD_ANNOTATION(guarded_by(x))

/** Function may only be called while holding the capabilities. */
#define WG_REQUIRES(...) \
    WG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function acquires the capabilities and does not release them. */
#define WG_ACQUIRE(...) \
    WG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the capabilities. */
#define WG_RELEASE(...) \
    WG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

namespace wg {

/**
 * std::mutex carrying the CAPABILITY attribute so WG_GUARDED_BY /
 * WG_REQUIRES annotations can name it. It has no public locking API:
 * the only way to hold it is a MutexLock.
 */
class WG_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

  private:
    friend class MutexLock;

    std::mutex& native() { return mu_; }

    std::mutex mu_;
};

/**
 * RAII critical section over a Mutex (the annotated twin of
 * std::unique_lock, which it wraps). Mid-scope unlock()/relock() are
 * annotated so single-flight code that drops the lock around a long
 * compute stays analyzable; the destructor releases only if held.
 */
class WG_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex& mu) WG_ACQUIRE(mu) : lock_(mu.native()) {}
    ~MutexLock() WG_RELEASE() {}

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

    /** Drop the lock mid-scope (e.g. around a long compute). */
    void unlock() WG_RELEASE() { lock_.unlock(); }

    /** Re-take the lock after unlock(). */
    void relock() WG_ACQUIRE() { lock_.lock(); }

  private:
    friend class CondVar;

    std::unique_lock<std::mutex>& native() { return lock_; }

    std::unique_lock<std::mutex> lock_;
};

/**
 * std::condition_variable adapted to MutexLock. wait() atomically
 * releases and re-acquires the underlying mutex, which the analysis
 * models as the capability being held across the call. Call it in an
 * explicit `while (!cond) cv.wait(lock)` loop: the condition then
 * reads WG_GUARDED_BY fields where the analysis can see the held lock.
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    void wait(MutexLock& lock) { cv_.wait(lock.native()); }

    void notifyOne() { cv_.notify_one(); }
    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

} // namespace wg
