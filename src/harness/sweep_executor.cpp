#include "harness/sweep_executor.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "harness/trial_chunk.h"
#include "support/assert.h"

namespace crmc::harness {

namespace internal {

// One enqueued sweep point. Queue bookkeeping (next/done/active/error) and
// `fold`, the merge of every finished chunk's partial fold, are guarded by
// the executor mutex; `output` slots are written lock-free by whichever
// worker claimed the chunk (disjoint trial ranges, published to the waiter
// by the done-count handshake under the mutex).
struct SweepJob {
  SweepJob(const TrialSpec& spec_in, const ProtocolHandle& protocol_in,
           std::int32_t trials_in, bool keep_runs,
           std::int32_t max_threads_in, const TrialJobPlan& plan_in,
           std::uint64_t id_in)
      : spec(spec_in),
        protocol(protocol_in),
        trials(trials_in),
        max_threads(max_threads_in),
        plan(plan_in),
        id(id_in),
        output(trials_in, keep_runs) {}

  TrialSpec spec;
  ProtocolHandle protocol;
  std::int32_t trials;
  std::int32_t max_threads;  // 0 = no per-job worker cap
  TrialJobPlan plan;
  std::uint64_t id;
  std::int32_t next = 0;    // first unclaimed trial
  std::int32_t done = 0;    // trials completed
  std::int32_t active = 0;  // workers currently on a chunk of this job
  std::exception_ptr error;  // first chunk failure; rethrown by Wait
  TrialJobOutput output;
  TrialSetResult fold;

  // Complete = safe to hand to the waiter: every trial done, or a chunk
  // failed (further claims were cancelled) and no worker still touches us.
  bool Complete() const {
    return done == trials || (error != nullptr && active == 0);
  }
};

}  // namespace internal

SweepExecutor::SweepExecutor(std::int32_t threads) : threads_(threads) {
  if (threads_ <= 0) {
    threads_ = static_cast<std::int32_t>(std::thread::hardware_concurrency());
    if (threads_ <= 0) threads_ = 4;
  }
}

SweepExecutor::~SweepExecutor() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& th : workers_) th.join();
}

SweepExecutor& SweepExecutor::Global() {
  static SweepExecutor executor;
  return executor;
}

void SweepExecutor::EnsureWorkersLocked(std::int32_t wanted) {
  const auto target = static_cast<std::size_t>(std::min(wanted, threads_));
  if (workers_.size() >= target) return;
  workers_.reserve(static_cast<std::size_t>(threads_));
  while (workers_.size() < target) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

SweepExecutor::Ticket SweepExecutor::Enqueue(const TrialSpec& spec,
                                             const ProtocolHandle& protocol,
                                             std::int32_t trials,
                                             bool keep_runs,
                                             std::int32_t max_threads) {
  CRMC_REQUIRE(trials >= 1);
  CRMC_REQUIRE(protocol.coroutine != nullptr);
  CRMC_REQUIRE(spec.lane_width >= 1);
  const internal::TrialJobPlan plan =
      internal::PlanTrialJob(spec, protocol, keep_runs);
  auto job = std::make_shared<internal::SweepJob>(
      spec, protocol, trials, keep_runs, max_threads, plan,
      internal::NextTrialJobId());
  // Workers this job may use at once: its cap, and no more than it has
  // chunks to hand out.
  const std::int32_t cap = max_threads > 0 ? max_threads : threads_;
  const std::int32_t chunks = (trials + plan.stride - 1) / plan.stride;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    EnsureWorkersLocked(cap);
    jobs_.push_back(job);
  }
  for (std::int32_t i = std::min(cap, chunks); i > 0; --i) {
    work_cv_.notify_one();
  }
  return Ticket(this, std::move(job));
}

void SweepExecutor::WorkerLoop() {
  internal::TrialWorkerCache cache;
  // The job this worker just finished a chunk of, until it claims again.
  std::shared_ptr<internal::SweepJob> left;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // FIFO scan: the oldest job with unclaimed work and a free worker slot
    // wins, so points drain in enqueue order and a draining point's idle
    // workers backfill from the next one.
    std::shared_ptr<internal::SweepJob> job;
    std::int32_t first = 0;
    std::int32_t count = 0;
    for (const std::shared_ptr<internal::SweepJob>& candidate : jobs_) {
      if (candidate->next >= candidate->trials) continue;
      if (candidate->max_threads > 0 &&
          candidate->active >= candidate->max_threads) {
        continue;
      }
      job = candidate;
      first = job->next;
      count = std::min(job->plan.stride, job->trials - first);
      job->next += count;
      ++job->active;
      break;
    }
    // Leaving a job with work still unclaimed frees its slot: wake one
    // sleeper to take it. Coming straight back to it wakes nobody.
    if (left != nullptr && left != job && left->next < left->trials) {
      work_cv_.notify_one();
    }
    left.reset();
    if (!job) {
      if (stop_) return;
      work_cv_.wait(lock);
      continue;
    }

    lock.unlock();
    TrialSetResult part;
    bool failed = false;
    try {
      internal::RunTrialChunk(job->spec, job->protocol, job->plan, job->id,
                              cache, first, count, job->output, part);
    } catch (...) {
      failed = true;
      lock.lock();
      if (job->error == nullptr) job->error = std::current_exception();
      job->next = job->trials;  // cancel unclaimed chunks
      lock.unlock();
    }
    lock.lock();

    --job->active;
    if (!failed) {
      job->done += count;
      internal::MergeTrialFold(part, job->fold);
    }
    if (job->Complete()) {
      jobs_.erase(std::find(jobs_.begin(), jobs_.end(), job));
      done_cv_.notify_all();
    } else {
      left = std::move(job);
    }
  }
}

TrialSetResult SweepExecutor::Ticket::Wait() {
  CRMC_REQUIRE(job_ != nullptr);  // Wait is single-use
  std::shared_ptr<internal::SweepJob> job = std::move(job_);
  {
    std::unique_lock<std::mutex> lock(owner_->mu_);
    owner_->done_cv_.wait(lock, [&] { return job->Complete(); });
  }
  if (job->error != nullptr) std::rethrow_exception(job->error);
  return internal::FinishTrialJob(std::move(job->fold),
                                  std::move(job->output));
}

}  // namespace crmc::harness
