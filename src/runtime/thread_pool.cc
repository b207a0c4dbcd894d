#include "runtime/thread_pool.h"

#include <algorithm>
#include <utility>

namespace msn::runtime {

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;  // Queued thunks are discarded (see header).
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      // Submit-level thunks have nowhere to report; TaskGroup captures
      // exceptions before they reach here.
    }
  }
}

TaskGroup::~TaskGroup() {
  try {
    Wait();
  } catch (...) {
  }
}

void TaskGroup::Run(std::function<void()> fn) {
  {
    const std::lock_guard<std::mutex> lock(state_->mu);
    state_->pending.push_back(std::move(fn));
  }
  if (pool_ != nullptr) {
    // A drain *hint*: whichever of (some worker, the waiting thread)
    // gets to the group's queue first runs the task.  The hint holds the
    // state alive, so it is harmless after the group is destroyed.
    pool_->Submit([state = state_] { DrainOne(state); });
  }
}

void TaskGroup::Run(std::function<void()> fn,
                    std::chrono::steady_clock::time_point deadline,
                    std::function<void()> on_expired) {
  Run([fn = std::move(fn), on_expired = std::move(on_expired), deadline] {
    if (std::chrono::steady_clock::now() >= deadline) {
      if (on_expired) on_expired();
    } else {
      fn();
    }
  });
}

void TaskGroup::DrainOne(const std::shared_ptr<State>& state) {
  std::function<void()> task;
  {
    const std::lock_guard<std::mutex> lock(state->mu);
    if (state->pending.empty()) return;  // The waiter beat us to it.
    task = std::move(state->pending.front());
    state->pending.pop_front();
    ++state->running;
  }
  try {
    task();
  } catch (...) {
    const std::lock_guard<std::mutex> lock(state->mu);
    if (!state->first_error) state->first_error = std::current_exception();
  }
  {
    const std::lock_guard<std::mutex> lock(state->mu);
    --state->running;
    if (state->running == 0 && state->pending.empty()) {
      state->cv.notify_all();
    }
  }
}

void TaskGroup::Wait() {
  for (;;) {
    bool have_task = false;
    {
      std::unique_lock<std::mutex> lock(state_->mu);
      if (!state_->pending.empty()) {
        have_task = true;
      } else if (state_->running > 0) {
        state_->cv.wait(lock, [this] {
          return state_->running == 0 && state_->pending.empty();
        });
        continue;  // Re-check under a fresh lock acquisition.
      } else {
        break;
      }
    }
    if (have_task) DrainOne(state_);
  }
  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(state_->mu);
    std::swap(error, state_->first_error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace msn::runtime
