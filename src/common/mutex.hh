/**
 * @file
 * Annotated mutex wrappers the thread-safety analysis can see.
 *
 * libstdc++'s std::mutex / std::lock_guard carry no capability
 * attributes, so clang's `-Wthread-safety` cannot reason about code
 * that uses them directly. dcl1::Mutex wraps std::mutex as a
 * DCL1_CAPABILITY and dcl1::MutexLock wraps the RAII guard as a
 * DCL1_SCOPED_CAPABILITY, which is all the analysis needs to verify
 * every DCL1_GUARDED_BY access. Both are zero-overhead shims — the
 * annotations compile to nothing and the calls inline away.
 *
 * Convention: any mutex whose protected state is named by a
 * DCL1_GUARDED_BY annotation must be a dcl1::Mutex, locked through
 * dcl1::MutexLock (or explicit lock()/unlock() on functions annotated
 * DCL1_ACQUIRE/DCL1_RELEASE). Raw std::mutex is reserved for code the
 * analysis never sees (none in src/ today).
 */

#ifndef DCL1_COMMON_MUTEX_HH
#define DCL1_COMMON_MUTEX_HH

#include <mutex>

#include "common/thread_annotations.hh"

namespace dcl1
{

/** std::mutex annotated as a thread-safety-analysis capability. */
class DCL1_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() DCL1_ACQUIRE()
    {
        mutex_.lock();
    }

    void
    unlock() DCL1_RELEASE()
    {
        mutex_.unlock();
    }

  private:
    std::mutex mutex_;
};

/** Scoped lock over a dcl1::Mutex (annotated std::lock_guard). */
class DCL1_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) DCL1_ACQUIRE(mutex) : mutex_(mutex)
    {
        mutex_.lock();
    }

    ~MutexLock() DCL1_RELEASE() { mutex_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mutex_;
};

} // namespace dcl1

#endif // DCL1_COMMON_MUTEX_HH
