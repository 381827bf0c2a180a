#pragma once

#include <mutex>

#include "util/thread_annotations.hpp"

namespace abr::util {

/// std::mutex with Clang thread-safety annotations. Use together with
/// ABR_GUARDED_BY / ABR_REQUIRES so the Clang CI leg proves the lock
/// discipline instead of TSan hoping to catch a violation at runtime.
/// Zero-overhead: the wrapper is exactly a std::mutex at runtime.
class ABR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ABR_ACQUIRE() { mutex_.lock(); }
  void unlock() ABR_RELEASE() { mutex_.unlock(); }
  bool try_lock() ABR_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  std::mutex mutex_;
};

/// Scoped lock for Mutex (the std::lock_guard counterpart the analysis can
/// see). Acquires in the constructor, releases in the destructor.
class ABR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ABR_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() ABR_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace abr::util
