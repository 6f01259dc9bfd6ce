// Persistent work-stealing executor for trial sweeps.
//
// RunTrials historically spawned and joined a fresh std::thread pool on
// every call — dozens of times per bench grid — and its static sharding
// meant a finishing grid point's last lanes left workers idle while the
// next point waited for the join. SweepExecutor keeps one lazily started
// worker pool for the process lifetime plus a FIFO job queue: bench
// binaries enqueue whole grids up front, workers claim lane-width-sized
// chunks from the oldest job with work remaining, and as one point drains,
// its retiring workers backfill from the next — no join barrier, no spawn
// cost, warm per-worker engine caches.
//
// Workers fold each chunk's results into the job as they finish it
// (harness/trial_chunk.h): a job holds its solved-round plane, 8 bytes a
// trial, and a RunResult per trial only under keep_runs. Ticket::Wait
// compacts the plane and summarizes; nothing else is left to do serially.
//
// Bit-exactness: trial t of a job always runs with seed base_seed + t and
// an EngineConfig built from the job's spec alone, and the fold's counters
// are integer sums and maxes, so which worker claims which chunk (and in
// what order) changes nothing but wall-clock. The threads x lane-width
// statistics-identity tests run through this pool.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "harness/runner.h"

namespace crmc::harness {

namespace internal {
struct SweepJob;
}  // namespace internal

class SweepExecutor {
 public:
  // Handle to one enqueued job. Wait() blocks until every trial completed,
  // then compacts the solved rounds and returns — call it exactly once.
  // Dropping a Ticket without waiting is allowed; the job still runs to
  // completion.
  class Ticket {
   public:
    TrialSetResult Wait();

   private:
    friend class SweepExecutor;
    Ticket(SweepExecutor* owner, std::shared_ptr<internal::SweepJob> job)
        : owner_(owner), job_(std::move(job)) {}
    SweepExecutor* owner_;
    std::shared_ptr<internal::SweepJob> job_;
  };

  // threads == 0: hardware concurrency. Workers start on demand: an
  // Enqueue starts as many as its max_threads cap admits (all `threads`
  // when uncapped), so constructing an executor (including the Global one)
  // is free until used, and 2-thread sweeps never start the rest. Enqueue
  // wakes only as many sleeping workers as the job can use at once.
  explicit SweepExecutor(std::int32_t threads = 0);
  // Joins the workers. Outstanding jobs must have been waited on; the
  // destructor finishes chunks already claimed but abandons unclaimed work.
  ~SweepExecutor();

  SweepExecutor(const SweepExecutor&) = delete;
  SweepExecutor& operator=(const SweepExecutor&) = delete;

  // The process-wide executor RunTrials multi-thread calls run on.
  static SweepExecutor& Global();

  // Enqueues one sweep point: `trials` runs of `protocol` under `spec`,
  // seeds base_seed + t. max_threads > 0 caps how many pool workers may
  // work this job concurrently (RunTrials' `threads` contract); 0 means no
  // cap. The handle's factories are copied and invoked from worker threads,
  // so they must be thread-safe to call (the registry's factories are).
  Ticket Enqueue(const TrialSpec& spec, const ProtocolHandle& protocol,
                 std::int32_t trials, bool keep_runs = false,
                 std::int32_t max_threads = 0);

  std::int32_t threads() const { return threads_; }

 private:
  void WorkerLoop();
  void EnsureWorkersLocked(std::int32_t wanted);

  std::int32_t threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: new work or shutdown
  std::condition_variable done_cv_;  // waiters: some job completed
  std::deque<std::shared_ptr<internal::SweepJob>> jobs_;
  std::vector<std::thread> workers_;
  std::uint64_t next_job_id_ = 1;
  bool stop_ = false;
};

}  // namespace crmc::harness
