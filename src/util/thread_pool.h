// Pre-spawned worker pool.
//
// Production Lepton must pre-spawn its threads before entering SECCOMP
// (clone() is forbidden afterwards — §5.1). The codec therefore takes a
// pool of already-running workers rather than spawning per job: segment
// fan-out goes through ThreadPool::parallel_run, which hands indices to the
// pre-spawned workers and to the calling thread — no clone() per codec
// call, and no deadlock when pooled jobs nest (the caller always makes
// progress on its own batch). The pool is also how the bench harness pins
// "N-thread" codec configurations.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <system_error>
#include <thread>
#include <vector>

namespace lepton::util {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t n_threads) {
    workers_.reserve(n_threads);
    for (std::size_t i = 0; i < n_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      tasks_.push(std::move(task));
    }
    cv_.notify_one();
  }

  std::size_t size() const { return workers_.size(); }

  // Runs fn(i) for i in [0, n) across the pre-spawned workers and returns
  // when all calls finish. The calling thread claims indices too, so the
  // batch completes even when every worker is busy (nested batches cannot
  // deadlock) and a pool of size 0 degrades to a serial loop. `fn` must not
  // throw (classified codec failures are captured inside the task).
  template <typename Fn>
  void parallel_run(int n, Fn&& fn) {
    if (n <= 0) return;
    if (n == 1 || workers_.empty()) {
      for (int i = 0; i < n; ++i) fn(i);
      return;
    }
    auto state = std::make_shared<BatchState>();
    state->n = n;
    state->run = [&fn](int i) { fn(i); };
    int helpers = static_cast<int>(workers_.size());
    if (helpers > n - 1) helpers = n - 1;
    for (int h = 0; h < helpers; ++h) {
      submit([state] { drain(*state); });
    }
    drain(*state);
    std::unique_lock<std::mutex> lk(state->mu);
    state->cv.wait(lk, [&state] { return state->done == state->n; });
  }

 private:
  struct BatchState {
    std::function<void(int)> run;
    std::atomic<int> next{0};
    int n = 0;
    std::mutex mu;
    std::condition_variable cv;
    int done = 0;
  };

  static void drain(BatchState& s) {
    int finished = 0;
    for (;;) {
      int i = s.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s.n) break;
      s.run(i);
      ++finished;
    }
    if (finished > 0) {
      std::lock_guard<std::mutex> lk(s.mu);
      s.done += finished;
      if (s.done == s.n) s.cv.notify_all();
    }
  }

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
        if (stop_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      task();
    }
  }

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

// Runs `fn(i)` for i in [0, n) on up to `threads` concurrent threads, the
// calling thread included, and returns once every call has finished. Each
// thread claims the next unclaimed index until none is left, so indices
// start in order (sort the work largest first to balance it). Structured
// parallelism for one-off jobs that run outside any pool, such as the
// recovery sweep. With `threads` or `n` at most 1 no thread is started; if
// starting one fails, the threads already running finish the range. Every
// started thread is joined before return, on every path. `fn` must not
// throw.
template <typename Fn>
void parallel_for_segments(int n, int threads, Fn&& fn) {
  int workers = threads < n ? threads : n;
  if (workers <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  auto drain = [&next, &fn, n] {
    for (int i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) fn(i);
  };
  std::vector<std::thread> helpers;
  helpers.reserve(static_cast<std::size_t>(workers - 1));
  struct JoinAll {
    std::vector<std::thread>& ts;
    ~JoinAll() {
      for (auto& t : ts) t.join();
    }
  } join_all{helpers};
  for (int w = 1; w < workers; ++w) {
    try {
      helpers.emplace_back(drain);
    } catch (const std::system_error&) {
      break;  // out of threads: the ones already started do the rest
    }
  }
  drain();
}

}  // namespace lepton::util
