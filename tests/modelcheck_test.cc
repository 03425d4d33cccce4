#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "modelcheck/explore.h"
#include "modelcheck/scenarios.h"
#include "util/mutex.h"
#include "util/vthread.h"

namespace ttra {
namespace modelcheck {
namespace {

// Validates the model checker on small hand-built programs with known
// schedule spaces — a correctly locked counter, a lost update, an AB/BA
// deadlock, a lost wakeup — before trusting it on the commit protocols
// (whose scenarios get smoke + seeded-bug coverage at the bottom).

TEST(ModelSchedulerTest, LockedCounterIsCorrectOnEverySchedule) {
  ExploreOptions options;
  options.preemption_bound = 3;
  ExploreResult result = Explore([](ModelContext& t) {
    Mutex mu;
    int counter = 0;
    ttra::Thread a([&] {
      MutexLock lock(mu);
      ++counter;
    });
    ttra::Thread b([&] {
      MutexLock lock(mu);
      ++counter;
    });
    a.join();
    b.join();
    MutexLock lock(mu);
    t.Check(counter == 2, "both increments visible");
  });
  EXPECT_FALSE(result.failed) << FormatFailure(result);
  EXPECT_TRUE(result.exhausted);
  // Both acquisition orders must have been explored.
  EXPECT_GE(result.schedules, 2u);
}

TEST(ModelSchedulerTest, LostUpdateIsFoundAndReplays) {
  // Read and write under separate critical sections: the classic lost
  // update. Some schedule must end with counter == 1.
  auto scenario = [](ModelContext& t) {
    Mutex mu;
    int counter = 0;
    auto racy_increment = [&mu, &counter] {
      int read;
      {
        MutexLock lock(mu);
        read = counter;
      }
      {
        MutexLock lock(mu);
        counter = read + 1;
      }
    };
    ttra::Thread a(racy_increment);
    ttra::Thread b(racy_increment);
    a.join();
    b.join();
    MutexLock lock(mu);
    t.Check(counter == 2, "lost update");
  };
  ExploreOptions options;
  options.preemption_bound = 2;
  ExploreResult result = Explore(scenario, options);
  ASSERT_TRUE(result.failed);
  EXPECT_EQ(result.failure_message, "lost update");
  EXPECT_FALSE(result.failure_decisions.empty());
  EXPECT_FALSE(result.failure_run.trace.empty());

  // The decision string replays to the same violation.
  std::vector<uint64_t> decisions;
  ASSERT_TRUE(ParseDecisions(result.failure_decisions, &decisions));
  ReplayResult replay = Replay(scenario, decisions);
  EXPECT_TRUE(replay.failed);
  EXPECT_EQ(replay.failure_message, "lost update");
}

TEST(ModelSchedulerTest, AbbaDeadlockIsDetectedWithTrace) {
  ExploreOptions options;
  options.preemption_bound = 2;
  ExploreResult result = Explore([](ModelContext& t) {
    Mutex a;
    Mutex b;
    ttra::Thread first([&] {
      MutexLock lock_a(a);
      MutexLock lock_b(b);
    });
    ttra::Thread second([&] {
      MutexLock lock_b(b);
      MutexLock lock_a(a);
    });
    first.join();
    second.join();
  });
  ASSERT_TRUE(result.failed);
  EXPECT_TRUE(result.failure_run.deadlock);
  EXPECT_NE(result.failure_message.find("deadlock"), std::string::npos);
  EXPECT_FALSE(result.failure_run.trace.empty());
  EXPECT_FALSE(result.failure_decisions.empty());
}

TEST(ModelSchedulerTest, LostWakeupIsDetected) {
  // Check-then-wait across two critical sections: if the signal lands in
  // the window between the check and the wait, it finds no waiter and is
  // lost — the waiter then blocks forever.
  ExploreOptions options;
  options.preemption_bound = 2;
  ExploreResult result = Explore([](ModelContext&) {
    Mutex mu;
    CondVar cv;
    bool flag = false;
    ttra::Thread waiter([&] {
      bool need;
      {
        MutexLock lock(mu);
        need = !flag;
      }
      if (need) {
        mu.Lock();
        cv.Wait(mu);
        mu.Unlock();
      }
    });
    ttra::Thread signaler([&] {
      {
        MutexLock lock(mu);
        flag = true;
      }
      cv.Signal();
    });
    waiter.join();
    signaler.join();
  });
  ASSERT_TRUE(result.failed);
  EXPECT_TRUE(result.failure_run.deadlock);
}

TEST(ModelSchedulerTest, PredicateWaitHasNoLostWakeup) {
  // Same shape but with the predicate overload and the flag written under
  // the mutex: correct on every schedule.
  ExploreOptions options;
  options.preemption_bound = 3;
  ExploreResult result = Explore([](ModelContext& t) {
    Mutex mu;
    CondVar cv;
    bool flag = false;
    bool observed = false;
    ttra::Thread waiter([&] {
      MutexLock lock(mu);
      cv.Wait(mu, [&]() TTRA_REQUIRES(mu) { return flag; });
      observed = flag;
    });
    ttra::Thread signaler([&] {
      {
        MutexLock lock(mu);
        flag = true;
      }
      cv.Signal();
    });
    waiter.join();
    signaler.join();
    t.Check(observed, "waiter saw the flag");
  });
  EXPECT_FALSE(result.failed) << FormatFailure(result);
  EXPECT_TRUE(result.exhausted);
}

TEST(ModelSchedulerTest, SleepSetsPruneIndependentOperations) {
  // Two tasks touching disjoint mutexes commute everywhere: sleep sets
  // should collapse the factorial schedule space to a handful.
  ExploreOptions options;
  options.preemption_bound = 4;
  ExploreResult result = Explore([](ModelContext& t) {
    Mutex a;
    Mutex b;
    int xa = 0;
    int xb = 0;
    ttra::Thread ta([&] {
      for (int i = 0; i < 3; ++i) {
        MutexLock lock(a);
        ++xa;
      }
    });
    ttra::Thread tb([&] {
      for (int i = 0; i < 3; ++i) {
        MutexLock lock(b);
        ++xb;
      }
    });
    ta.join();
    tb.join();
    t.Check(xa == 3 && xb == 3, "independent counters");
  });
  EXPECT_FALSE(result.failed) << FormatFailure(result);
  EXPECT_TRUE(result.exhausted);
  // Unpruned, interleaving 2×(3 lock/unlock pairs) explodes into many
  // hundreds of schedules; commuting runs must collapse hard.
  EXPECT_LE(result.schedules, 64u);
}

TEST(ModelSchedulerTest, SharedMutexReadersExcludeWriter) {
  ExploreOptions options;
  options.preemption_bound = 2;
  ExploreResult result = Explore([](ModelContext& t) {
    SharedMutex mu;
    int value = 0;
    bool torn = false;
    ttra::Thread writer([&] {
      WriterMutexLock lock(mu);
      value = 1;   // both writes inside one exclusive section
      value = 2;
    });
    ttra::Thread reader([&] {
      ReaderMutexLock lock(mu);
      torn = value == 1;  // must never observe the intermediate state
    });
    writer.join();
    reader.join();
    t.Check(!torn, "reader saw a torn write");
  });
  EXPECT_FALSE(result.failed) << FormatFailure(result);
  EXPECT_TRUE(result.exhausted);
}

// --- Commit-protocol scenarios -------------------------------------------

TEST(ProtocolScenarioTest, ConcurrentScenarioSmoke) {
  ExploreOptions options;
  options.preemption_bound = 1;
  options.max_schedules = 40;
  ExploreResult result = Explore(ConcurrentCommitScenario().run, options);
  EXPECT_FALSE(result.failed) << FormatFailure(result);
  EXPECT_GE(result.schedules, 1u);
}

TEST(ProtocolScenarioTest, ShardedScenarioSmoke) {
  ExploreOptions options;
  options.preemption_bound = 1;
  options.max_schedules = 40;
  ExploreResult result =
      Explore(ShardedCrossShardScenario(false).run, options);
  EXPECT_FALSE(result.failed) << FormatFailure(result);
  EXPECT_GE(result.schedules, 1u);
}

TEST(ProtocolScenarioTest, CheckpointScenarioSmoke) {
  ExploreOptions options;
  options.preemption_bound = 1;
  options.max_schedules = 40;
  ExploreResult result =
      Explore(ShardedCheckpointScenario(/*fail_rotation=*/false).run, options);
  EXPECT_FALSE(result.failed) << FormatFailure(result);
  EXPECT_GE(result.schedules, 1u);
}

// A batch a writer dequeued while a checkpoint fails its generation
// switch must not reach any log once the executor is degraded: degraded
// mode is re-checked after the writer takes the checkpoint gate, so the
// sentence commits (it got in first) or is refused read-only — never a
// raw write error from a log the checkpoint left unusable. Exhaustive at
// preemption bound 2.
TEST(ProtocolScenarioTest, BatchRacingAFailedCheckpointNeverReachesALog) {
  ExploreOptions options;
  options.preemption_bound = 2;
  ExploreResult result =
      Explore(ShardedCheckpointScenario(/*fail_rotation=*/true).run, options);
  EXPECT_FALSE(result.failed) << FormatFailure(result);
  EXPECT_TRUE(result.exhausted);
}

TEST(ProtocolScenarioTest, SeededWatermarkBugIsCaughtWithReplayableTrace) {
  Scenario seeded = ShardedCrossShardScenario(/*seeded_bug=*/true);
  ExploreOptions options;
  options.preemption_bound = 2;
  options.max_schedules = 2000;
  ExploreResult result = Explore(seeded.run, options);
  ASSERT_TRUE(result.failed)
      << "seeded ack_out_of_order bug escaped " << result.schedules
      << " schedules";
  EXPECT_FALSE(result.failure_decisions.empty());
  EXPECT_FALSE(result.failure_run.trace.empty());

  std::vector<uint64_t> decisions;
  ASSERT_TRUE(ParseDecisions(result.failure_decisions, &decisions));
  ReplayResult replay = Replay(seeded.run, decisions);
  EXPECT_TRUE(replay.failed);
  EXPECT_EQ(replay.failure_message, result.failure_message);
}

}  // namespace
}  // namespace modelcheck
}  // namespace ttra
