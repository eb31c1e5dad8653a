// Fixed-size worker pool for deterministic fork/join parallelism.
//
// The pool exposes exactly one primitive — parallel_for. Its user is the
// fleet service's pump (fleet/service.h), which fans one pass across the
// detector shards; every shard writes only the sessions it owns, so outputs
// are bit-identical for any worker count (docs/CONCURRENCY.md).
//
// A pool of size n owns n−1 worker threads; the thread calling parallel_for
// participates as the n-th worker. Size 1 therefore spawns no threads at
// all and parallel_for degenerates to a plain loop on the calling thread —
// the exact legacy serial path, not an emulation of it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace roboads::common {

class ThreadPool {
 public:
  // `size` counts the calling thread: size 1 means fully serial, size n
  // means n-way concurrency (n−1 spawned workers). 0 is invalid — resolve
  // requested counts through resolve_thread_count first.
  explicit ThreadPool(std::size_t size);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total concurrency, including the calling thread.
  std::size_t size() const { return workers_.size() + 1; }

  // Executes fn(i) exactly once for every i in [0, count), distributed over
  // the workers plus the calling thread, and blocks until all invocations
  // have finished. Indices are claimed dynamically, so per-index work may
  // run on any thread and in any order — callers must only write to
  // index-owned slots. If any invocation throws, the exception thrown by
  // the lowest failing index is rethrown here after the join (every index
  // still runs; failures never cancel other indices, keeping the set of
  // executed work independent of scheduling).
  //
  // Not reentrant: a pool runs one parallel_for at a time, and fn must not
  // call back into the same pool.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  // Maps a user-facing thread-count knob to a pool size: 0 selects the
  // hardware concurrency (at least 1), anything else is taken literally.
  static std::size_t resolve_thread_count(std::size_t requested);

 private:
  struct Batch;

  void worker_loop();
  void run_items(Batch& batch);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a new batch or stop
  std::condition_variable done_cv_;  // parallel_for: batch fully retired
  Batch* batch_ = nullptr;           // non-null while a batch is live
  std::uint64_t epoch_ = 0;          // bumped per batch; workers join once
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace roboads::common
