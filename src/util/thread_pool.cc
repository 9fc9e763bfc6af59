#include "util/thread_pool.h"

#include <atomic>
#include <memory>

namespace toppriv::util {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  work_available_.SignalAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    queue_.push_back(std::move(task));
  }
  work_available_.Signal();
}

void ThreadPool::Wait() {
  MutexLock lock(&mu_);
  while (!(queue_.empty() && active_ == 0)) all_idle_.Wait();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // A shared cursor instead of static chunking: workers that draw cheap
  // iterations immediately pull the next one. Completion is tracked per
  // call, not via the pool-wide Wait(): concurrent ParallelFor callers
  // sharing one pool must only block on their own iterations.
  struct CallState {
    std::atomic<size_t> cursor{0};
    Mutex mu;
    CondVar done{&mu};
    size_t pending GUARDED_BY(mu) = 0;
  };
  auto state = std::make_shared<CallState>();
  const size_t num_workers = std::min(n, threads_.size());
  {
    MutexLock lock(&state->mu);
    state->pending = num_workers;
  }
  for (size_t w = 0; w < num_workers; ++w) {
    Submit([state, n, &fn] {
      for (size_t i = state->cursor.fetch_add(1); i < n;
           i = state->cursor.fetch_add(1)) {
        fn(i);
      }
      MutexLock lock(&state->mu);
      if (--state->pending == 0) state->done.SignalAll();
    });
  }
  MutexLock lock(&state->mu);
  while (state->pending != 0) state->done.Wait();
}

size_t ThreadPool::HardwareConcurrency() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && queue_.empty()) work_available_.Wait();
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      MutexLock lock(&mu_);
      --active_;
      if (queue_.empty() && active_ == 0) all_idle_.SignalAll();
    }
  }
}

}  // namespace toppriv::util
