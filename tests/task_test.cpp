// Unit tests for the coroutine Task machinery itself (lifetime, moves,
// exceptions, deep nesting) — exercised against a minimal manual driver
// rather than the full engine, so failures localize.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "sim/task.h"

namespace crmc::sim {
namespace {

// Tasks are lazy: nothing runs until awaited/resumed.
Task<int> SetFlagAndReturn(bool* flag, int value) {
  *flag = true;
  co_return value;
}

Task<void> AwaitInner(bool* flag, int* out) {
  *out = co_await SetFlagAndReturn(flag, 41);
}

TEST(Task, LazyStart) {
  bool ran = false;
  int out = 0;
  {
    Task<void> task = AwaitInner(&ran, &out);
    EXPECT_FALSE(ran);  // not started yet
    task.Resume();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(task.Done());
    EXPECT_EQ(out, 41);
  }
}

TEST(Task, DestroyWithoutRunningLeaksNothing) {
  // Destroying a never-started task must destroy the frame (verified by
  // parameter destructors running).
  struct Probe {
    std::shared_ptr<int> token;
  };
  auto token = std::make_shared<int>(7);
  struct Fn {
    static Task<void> Run(Probe p) {
      (void)p;
      co_return;
    }
  };
  {
    Task<void> task = Fn::Run(Probe{token});
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);  // frame destroyed with the task
}

TEST(Task, MoveTransfersOwnership) {
  bool ran = false;
  int out = 0;
  Task<void> a = AwaitInner(&ran, &out);
  Task<void> b = std::move(a);
  EXPECT_FALSE(a.Valid());
  EXPECT_TRUE(b.Valid());
  b.Resume();
  EXPECT_TRUE(b.Done());
  EXPECT_EQ(out, 41);

  // Move-assignment destroys the previous task.
  Task<void> c = AwaitInner(&ran, &out);
  c = AwaitInner(&ran, &out);
  EXPECT_TRUE(c.Valid());
}

Task<int> Throwing() {
  throw std::runtime_error("inner failure");
  co_return 0;  // unreachable
}

Task<void> CatchesInner(std::string* what) {
  try {
    (void)co_await Throwing();
  } catch (const std::runtime_error& e) {
    *what = e.what();
  }
}

TEST(Task, InnerExceptionPropagatesToAwaiter) {
  std::string what;
  Task<void> task = CatchesInner(&what);
  task.Resume();
  EXPECT_TRUE(task.Done());
  EXPECT_EQ(what, "inner failure");
}

Task<void> ThrowsDirectly() {
  throw std::logic_error("top failure");
  co_return;  // unreachable
}

TEST(Task, TopLevelExceptionViaRethrowIfFailed) {
  Task<void> task = ThrowsDirectly();
  task.Resume();
  EXPECT_TRUE(task.Done());
  EXPECT_THROW(task.RethrowIfFailed(), std::logic_error);
}

// Deep nesting: symmetric transfer must not consume native stack — 100k
// nested awaits would overflow a stack-based implementation. The
// tail-call that makes handle-returning await_suspend stackless is only
// guaranteed under optimization, so unoptimized (Debug/sanitizer) builds
// run a shallow version.
Task<int> Nest(int depth) {
  if (depth == 0) co_return 1;
  const int below = co_await Nest(depth - 1);
  co_return below + 1;
}

Task<void> RunNest(int depth, int* out) { *out = co_await Nest(depth); }

// ASan and TSan insert instrumented frames that defeat the
// symmetric-transfer tail call, so sanitized builds also take the shallow
// path even when optimized.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CRMC_TASK_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CRMC_TASK_TEST_SANITIZED 1
#endif
#endif

TEST(Task, DeepNestingDoesNotOverflowTheStack) {
#if defined(NDEBUG) && !defined(CRMC_TASK_TEST_SANITIZED)
  constexpr int kDepth = 100000;
#else
  constexpr int kDepth = 500;
#endif
  int out = 0;
  Task<void> task = RunNest(kDepth, &out);
  task.Resume();
  EXPECT_TRUE(task.Done());
  EXPECT_EQ(out, kDepth + 1);
}

Task<std::string> ValueCategories() { co_return std::string(1000, 'x'); }

Task<void> MovesValue(std::size_t* len) {
  const std::string s = co_await ValueCategories();
  *len = s.size();
}

TEST(Task, ReturnsMoveOnlyFriendlyValues) {
  std::size_t len = 0;
  Task<void> task = MovesValue(&len);
  task.Resume();
  EXPECT_EQ(len, 1000u);
}

}  // namespace
}  // namespace crmc::sim
