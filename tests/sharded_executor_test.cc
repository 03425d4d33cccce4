#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "oracle_harness.h"

namespace ttra {
namespace {

using oracle::EmpSchema;
using oracle::DirImage;
using oracle::EmpState;
using oracle::FastOptions;
using oracle::NameOnShard;

// Deterministic unit tests for the sharded multi-writer executor: layout
// and routing, restart recovery, MANIFEST authority, cross-shard atomic
// sentences, checkpointing and degraded mode. The randomized end-to-end
// contract (merged order ≡ serial replay) lives in concurrent_oracle_test.

TEST(ShardRoutingTest, ShardOfNameIsDeterministicAndInRange) {
  const std::vector<std::string> names = {"emp", "dept", "t0", "r1", ""};
  for (const std::string& name : names) {
    for (size_t shards : {1u, 2u, 4u, 7u}) {
      const size_t first = ShardOfName(name, shards);
      EXPECT_LT(first, shards);
      EXPECT_EQ(first, ShardOfName(name, shards));  // pure function
    }
    // Degenerate counts collapse to shard 0.
    EXPECT_EQ(ShardOfName(name, 1), 0u);
    EXPECT_EQ(ShardOfName(name, 0), 0u);
  }
  // The hash actually spreads: across a modest name population and 4
  // shards, every shard is somebody's home.
  std::set<size_t> hit;
  for (int i = 0; i < 64; ++i) {
    hit.insert(ShardOfName("rel" + std::to_string(i), 4));
  }
  EXPECT_EQ(hit.size(), 4u);
}

TEST(ShardLayoutTest, StartCreatesManifestWalsAndCoordinator) {
  InMemoryEnv env;
  ShardedExecutor exec(&env, "db", FastOptions(3));
  ASSERT_TRUE(exec.Start().ok());
  EXPECT_EQ(exec.shards(), 3u);
  EXPECT_TRUE(IsShardedDir(env, "db"));
  auto manifest = ReadShardManifest(env, "db");
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(*manifest, 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_TRUE(env.Exists("db/" + ShardWalFile(k))) << k;
  }
  EXPECT_TRUE(env.Exists("db/" + CoordinatorLogFile()));
  exec.Stop();
}

TEST(ShardLayoutTest, LogNamesParseBackAndEverythingElseIsNoLog) {
  for (uint64_t generation : {0u, 1u, 17u}) {
    auto shard = ParseShardedLogName(ShardWalFile(3, generation));
    ASSERT_TRUE(shard.has_value()) << generation;
    EXPECT_FALSE(shard->coordinator);
    EXPECT_EQ(shard->shard, 3u);
    EXPECT_EQ(shard->generation, generation);
    auto coordinator = ParseShardedLogName(CoordinatorLogFile(generation));
    ASSERT_TRUE(coordinator.has_value()) << generation;
    EXPECT_TRUE(coordinator->coordinator);
    EXPECT_EQ(coordinator->generation, generation);
  }
  EXPECT_EQ(ShardWalFile(2, 5), "shard-2.5.wal");
  EXPECT_EQ(CoordinatorLogFile(5), "coordinator.5.log");
  for (const char* stray :
       {"shard-1.wal.quarantine", "shard-01.wal", "shard-1.0.wal",
        "shard-1.wal.tmp", "shard-.wal", "shard-1.x.wal", "coordinator.0.log",
        "coordinator.log.quarantine", "coordinators.log", "wal.log",
        "MANIFEST", "segments.manifest", "shard-1024.wal",
        "shard-1.99999999999999999999.wal"}) {
    EXPECT_FALSE(ParseShardedLogName(stray).has_value()) << stray;
  }
}

TEST(ShardLayoutTest, ManifestShardCountIsAuthoritativeOnReopen) {
  InMemoryEnv env;
  {
    ShardedExecutor exec(&env, "db", FastOptions(4));
    ASSERT_TRUE(exec.Start().ok());
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        "emp", RelationType::kRollback, EmpSchema()}})
                    .ok());
    exec.Stop();
  }
  // Reopening with a different requested count adopts the directory's
  // count: records were routed by hash-mod-4, so 4 it stays.
  ShardedExecutor exec(&env, "db", FastOptions(2));
  ASSERT_TRUE(exec.Start().ok());
  EXPECT_EQ(exec.shards(), 4u);
  EXPECT_TRUE(exec.Submit(Command{ModifySnapshotCmd{
                      "emp", EmpState({{"ed", 100}})}})
                  .ok());
  exec.Stop();
}

TEST(ShardLayoutTest, RefusesMoreShardsThanTheManifestAllows) {
  // ReadShardManifest rejects a count beyond kMaxShards as corruption, so
  // Start() must refuse it before the MANIFEST is ever written.
  InMemoryEnv env;
  ShardedExecutor exec(&env, "db", FastOptions(kMaxShards + 1));
  const Status status = exec.Start();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_FALSE(IsShardedDir(env, "db"));
  EXPECT_FALSE(env.Exists("db/" + ShardWalFile(0)));
}

TEST(ShardLayoutTest, RefusesSingleWriterDirectory) {
  InMemoryEnv env;
  {
    // A single-writer (DurableExecutor-layout) directory with real data.
    DurableExecutor single(&env, "db", DurableOptions{});
    ASSERT_TRUE(single.Open().ok());
    ASSERT_TRUE(single
                    .Submit(Command{DefineRelationCmd{
                        "emp", RelationType::kRollback, EmpSchema()}})
                    .ok());
  }
  // Starting the sharded executor there must refuse loudly rather than
  // silently ignoring wal.log (= dropping committed sentences).
  ShardedExecutor exec(&env, "db", FastOptions(2));
  const Status status = exec.Start();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.message().find("wal.log"), std::string::npos);
  EXPECT_NE(status.message().find("ttra recover"), std::string::npos);
}

TEST(ShardLayoutTest, SingleWriterRefusesShardedDirectory) {
  InMemoryEnv env;
  {
    // A one-shard (group-commit) directory whose only commit lives in
    // shard-0.wal.
    ShardedExecutor exec(&env, "db", FastOptions(1));
    ASSERT_TRUE(exec.Start().ok());
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        "emp", RelationType::kRollback, EmpSchema()}})
                    .ok());
    exec.Stop();
  }
  // The single-writer executor must refuse rather than load the
  // checkpoint alone (dropping the commit) and start a wal.log that the
  // sharded executor would in turn ignore.
  DurableExecutor single(&env, "db", DurableOptions{});
  const Status status = single.Open();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.message().find("MANIFEST"), std::string::npos);
  EXPECT_NE(status.message().find("ttra recover"), std::string::npos);
  EXPECT_FALSE(env.Exists("db/wal.log"));

  ShardedExecutor reopened(&env, "db", FastOptions(1));
  ASSERT_TRUE(reopened.Start().ok());
  EXPECT_NE(reopened.Snapshot().Find("emp"), nullptr);
  reopened.Stop();
}

/// Rewrites a live directory into the retired full-image layout: its
/// compact checkpoint is replaced by checkpoint.db holding `db`, and every
/// log is left as it is.
void MakeLegacyLayout(Env* env, const std::string& dir, const Database& db) {
  const std::vector<std::string> names = *env->List(dir);
  for (const std::string& name : names) {
    if (name == kCompactManifestFile || IsSegmentFileName(name)) {
      ASSERT_TRUE(env->Remove(dir + "/" + name).ok());
    }
  }
  ASSERT_TRUE(
      SaveDatabase(db, dir + "/" + kLegacyCheckpointFile, env).ok());
}

TEST(ShardLayoutTest, RefusesLegacyCheckpointDirectory) {
  // Read as an empty database, this directory's shard-log commits would
  // all lie beyond the first gap: recovery would drop them and truncate
  // the logs. It must be refused with every byte left in place.
  InMemoryEnv env;
  {
    ShardedExecutor exec(&env, "db", FastOptions(2));
    ASSERT_TRUE(exec.Start().ok());
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        "emp", RelationType::kRollback, EmpSchema()}})
                    .ok());
    ASSERT_TRUE(exec.Checkpoint().ok());
    ASSERT_TRUE(exec.Submit(Command{ModifySnapshotCmd{
                        "emp", EmpState({{"ed", 100}})}})
                    .ok());
    exec.Stop();
    MakeLegacyLayout(&env, "db", Database());
  }
  const auto before = DirImage(env, "db");
  ShardedExecutor exec(&env, "db", FastOptions(2));
  const Status status = exec.Start();
  ASSERT_EQ(status.code(), ErrorCode::kInvalidArgument) << status;
  EXPECT_NE(status.message().find("checkpoint.db"), std::string::npos);
  EXPECT_EQ(DirImage(env, "db"), before);
}

TEST(ShardLayoutTest, SingleWriterRefusesLegacyCheckpointDirectory) {
  InMemoryEnv env;
  Database checkpointed;
  {
    DurableExecutor single(&env, "db", DurableOptions{});
    ASSERT_TRUE(single.Open().ok());
    ASSERT_TRUE(single
                    .Submit(Command{DefineRelationCmd{
                        "emp", RelationType::kRollback, EmpSchema()}})
                    .ok());
    checkpointed = single.Snapshot();
    MakeLegacyLayout(&env, "db", checkpointed);
  }
  const auto before = DirImage(env, "db");
  DurableExecutor single(&env, "db", DurableOptions{});
  const Status status = single.Open();
  ASSERT_EQ(status.code(), ErrorCode::kInvalidArgument) << status;
  EXPECT_NE(status.message().find("checkpoint.db"), std::string::npos);
  EXPECT_EQ(DirImage(env, "db"), before);
}

TEST(ShardedExecutorTest, CommitsRouteToHomeShardsAndReadersSeeOneChain) {
  InMemoryEnv env;
  ShardedExecutor exec(&env, "db", FastOptions(2));
  ASSERT_TRUE(exec.Start().ok());
  const std::string on0 = NameOnShard(0, 2);
  const std::string on1 = NameOnShard(1, 2);
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      on0, RelationType::kRollback, EmpSchema()}})
                  .ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      on1, RelationType::kRollback, EmpSchema()}})
                  .ok());
  ASSERT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{on0, EmpState({{"a", 1}})}}).ok());
  ASSERT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{on1, EmpState({{"b", 2}})}}).ok());
  EXPECT_EQ(exec.transaction_number(), 4u);

  // Both shards actually homed work (the partitioning is real) and the
  // reader surface is one database chain across all of them.
  const ShardedExecutor::Stats stats = exec.stats();
  ASSERT_EQ(stats.per_shard.size(), 2u);
  EXPECT_GT(stats.per_shard[0].batches, 0u);
  EXPECT_GT(stats.per_shard[1].batches, 0u);
  EXPECT_EQ(stats.commits, 4u);
  Session session = exec.OpenSession();
  EXPECT_EQ(session.epoch(), 4u);
  EXPECT_TRUE(session.Rollback(on0).ok());
  EXPECT_TRUE(session.Rollback(on1).ok());
  exec.Stop();
}

TEST(ShardedExecutorTest, RestartRecoversTheMergedOrder) {
  InMemoryEnv env;
  const std::string on0 = NameOnShard(0, 2);
  const std::string on1 = NameOnShard(1, 2);
  std::string before;
  {
    ShardedExecutor exec(&env, "db", FastOptions(2));
    ASSERT_TRUE(exec.Start().ok());
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        on0, RelationType::kRollback, EmpSchema()}})
                    .ok());
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        on1, RelationType::kRollback, EmpSchema()}})
                    .ok());
    for (int i = 0; i < 6; ++i) {
      const std::string& target = (i % 2 == 0) ? on0 : on1;
      ASSERT_TRUE(exec.Submit(Command{ModifySnapshotCmd{
                          target, EmpState({{"x", i}})}})
                      .ok());
    }
    before = EncodeDatabase(exec.Snapshot());
    exec.Stop();
  }
  ShardedExecutor exec(&env, "db", FastOptions(2));
  ASSERT_TRUE(exec.Start().ok());
  EXPECT_EQ(EncodeDatabase(exec.Snapshot()), before);
  EXPECT_EQ(exec.transaction_number(), 8u);
  const ShardedExecutor::RecoveryInfo info = exec.last_recovery();
  EXPECT_EQ(info.shards, 2u);
  EXPECT_EQ(info.replayed_sentences, 8u);
  EXPECT_EQ(info.dropped_in_doubt, 0u);
  // History (not just the tip) survived the merge: every epoch answers.
  Session session = exec.OpenSession();
  for (TransactionNumber n = 2; n <= 8; ++n) {
    EXPECT_TRUE(session.Rollback(on0, n).ok()) << n;
  }
  exec.Stop();
}

// Regression test for the coordinator-flush restructuring: the advisory
// log's fsync was moved OUT of commit_mutex_ (it ran inside the global
// order lock, stalling every committer behind a disk flush — the
// io-under-lock lint pass pins the fix; its waiver file deliberately
// does not excuse commit_mutex_ -> Sync). The observable contract must
// hold: scheduled flushes still happen and are counted, the final
// opportunistic flush still runs at Stop(), and the coordinator log
// still recovers the merged order after restart.
TEST(ShardedExecutorTest, CoordinatorSyncsStillRunAndRecoverAfterMove) {
  InMemoryEnv env;
  const std::string on0 = NameOnShard(0, 2);
  const std::string on1 = NameOnShard(1, 2);

  // Aggressive policy: every batch schedules a lazy flush (post-ack).
  ShardedOptions eager = FastOptions(2);
  eager.coordinator_sync_every = 1;
  std::string before;
  {
    ShardedExecutor exec(&env, "db", eager);
    ASSERT_TRUE(exec.Start().ok());
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        on0, RelationType::kRollback, EmpSchema()}})
                    .ok());
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        on1, RelationType::kRollback, EmpSchema()}})
                    .ok());
    for (int i = 0; i < 4; ++i) {
      const std::string& target = (i % 2 == 0) ? on0 : on1;
      ASSERT_TRUE(exec.Submit(Command{ModifySnapshotCmd{
                          target, EmpState({{"x", i}})}})
                      .ok());
    }
    before = EncodeDatabase(exec.Snapshot());
    exec.Stop();
    // Synchronous submits → one batch each → one booked flush each
    // (writers are joined by Stop, so every flush is accounted for).
    const ShardedExecutor::Stats stats = exec.stats();
    EXPECT_GE(stats.coordinator_syncs, 6u);
    EXPECT_FALSE(stats.degraded);
  }
  {
    // The coordinator log fsynced outside the lock is still a valid,
    // recoverable prefix: restart reproduces the merged order exactly.
    ShardedExecutor exec(&env, "db", eager);
    ASSERT_TRUE(exec.Start().ok());
    EXPECT_EQ(EncodeDatabase(exec.Snapshot()), before);
    EXPECT_EQ(exec.transaction_number(), 6u);
    exec.Stop();
  }

  // Lazy policy: nothing reaches the threshold, so the only flush is the
  // final opportunistic one in Stop() — also outside the lock now.
  ShardedOptions lazy = FastOptions(2);
  lazy.coordinator_sync_every = 1000;
  InMemoryEnv env2;
  ShardedExecutor exec(&env2, "db", lazy);
  ASSERT_TRUE(exec.Start().ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      on0, RelationType::kRollback, EmpSchema()}})
                  .ok());
  ASSERT_TRUE(exec.Submit(Command{ModifySnapshotCmd{
                      on0, EmpState({{"y", 1}})}})
                  .ok());
  EXPECT_EQ(exec.stats().coordinator_syncs, 0u);
  exec.Stop();
  EXPECT_EQ(exec.stats().coordinator_syncs, 1u);
}

TEST(ShardedExecutorTest, CrossShardAtomicSentenceIsAllOrNothing) {
  InMemoryEnv env;
  ShardedExecutor exec(&env, "db", FastOptions(2));
  ASSERT_TRUE(exec.Start().ok());
  const std::string on0 = NameOnShard(0, 2);
  const std::string on1 = NameOnShard(1, 2);
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      on0, RelationType::kRollback, EmpSchema()}})
                  .ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                      on1, RelationType::kRollback, EmpSchema()}})
                  .ok());

  // Failing atomic sentence spanning both shards: no effect, no txn.
  std::vector<Command> failing;
  failing.push_back(ModifySnapshotCmd{on0, EmpState({{"a", 1}})});
  failing.push_back(DefineRelationCmd{on1, RelationType::kRollback,
                                      EmpSchema()});  // duplicate → error
  const auto refused = exec.SubmitAtomic(std::move(failing));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(exec.transaction_number(), 2u);
  {
    Session session = exec.OpenSession();
    auto state = session.Rollback(on0);
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(state->size(), 0u);  // the modify rolled back with the batch
  }

  // Successful atomic sentence spanning both shards: both effects land.
  std::vector<Command> ok;
  ok.push_back(ModifySnapshotCmd{on0, EmpState({{"a", 1}})});
  ok.push_back(ModifySnapshotCmd{on1, EmpState({{"b", 2}})});
  const auto committed = exec.SubmitAtomic(std::move(ok));
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(*committed, 4u);
  EXPECT_GE(exec.stats().cross_shard_batches, 1u);

  // The cross-shard batch survives restart (two-phase markers + commit).
  const std::string before = EncodeDatabase(exec.Snapshot());
  exec.Stop();
  ShardedExecutor reopened(&env, "db", FastOptions(2));
  ASSERT_TRUE(reopened.Start().ok());
  EXPECT_EQ(EncodeDatabase(reopened.Snapshot()), before);
  reopened.Stop();
}

TEST(ShardedExecutorTest, CheckpointTruncatesAllShardLogs) {
  InMemoryEnv env;
  ShardedOptions options = FastOptions(2);
  ShardedExecutor exec(&env, "db", options);
  ASSERT_TRUE(exec.Start().ok());
  const std::string on0 = NameOnShard(0, 2);
  const std::string on1 = NameOnShard(1, 2);
  for (const std::string& name : {on0, on1}) {
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        name, RelationType::kRollback, EmpSchema()}})
                    .ok());
    ASSERT_TRUE(
        exec.Submit(Command{ModifySnapshotCmd{name, EmpState({{"a", 1}})}})
            .ok());
  }
  ASSERT_TRUE(exec.Checkpoint().ok());
  // Every log switched to generation 1, a bare header, and generation 0 is
  // gone: recovery now starts from the checkpoint alone.
  auto logs = ListShardedLogs(env, "db", 2);
  ASSERT_TRUE(logs.ok()) << logs.status();
  ASSERT_EQ(logs->size(), 3u);
  for (const ShardedLogName& log : *logs) {
    EXPECT_EQ(log.generation, 1u) << log.file;
    auto wal = ReadWal(env, "db/" + log.file);
    ASSERT_TRUE(wal.ok());
    EXPECT_TRUE(wal->records.empty()) << log.file;
  }
  EXPECT_TRUE(env.Exists("db/" + ShardWalFile(1, 1)));
  EXPECT_TRUE(env.Exists("db/" + CoordinatorLogFile(1)));

  // Post-checkpoint commits (the sequence space carries on in the new
  // generation) chain correctly across a restart.
  ASSERT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{on0, EmpState({{"z", 9}})}}).ok());
  const std::string before = EncodeDatabase(exec.Snapshot());
  const TransactionNumber txn = exec.transaction_number();
  exec.Stop();
  ShardedExecutor reopened(&env, "db", options);
  ASSERT_TRUE(reopened.Start().ok());
  EXPECT_EQ(reopened.transaction_number(), txn);
  EXPECT_EQ(reopened.last_recovery().checkpoint_txn, txn - 1);
  EXPECT_EQ(EncodeDatabase(reopened.Snapshot()), before);
  reopened.Stop();
}

// Under the strict POSIX rule a created or removed file's directory entry
// is durable only once the directory is synced. A commit acknowledged in
// a new generation must survive a crash, and a generation that a
// checkpoint or Start() removed must stay removed: beside logs whose
// sequence numbers restarted, it would collide on (shard, seq).
TEST(ShardedExecutorTest, GenerationsSurviveACrashUnderStrictDirectories) {
  InMemoryEnv env;
  env.set_require_dir_sync(true);
  const ShardedOptions options = FastOptions(2);
  const std::vector<std::string> names = {NameOnShard(0, 2),
                                          NameOnShard(1, 2)};
  const auto modify = [&](ShardedExecutor& exec, int64_t value) {
    for (const std::string& name : names) {
      ASSERT_TRUE(exec.Submit(Command{ModifySnapshotCmd{
                                  name, EmpState({{"v", value}})}})
                      .ok());
    }
  };
  std::string before;
  {
    ShardedExecutor exec(&env, "db", options);
    ASSERT_TRUE(exec.Start().ok());
    for (const std::string& name : names) {
      ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                          name, RelationType::kRollback, EmpSchema()}})
                      .ok());
    }
    ASSERT_TRUE(exec.Checkpoint().ok());
    modify(exec, 1);
    // This image writes no new segment file, so only the switch's own
    // directory sync records generation 2.
    ASSERT_TRUE(exec.Checkpoint().ok());
    modify(exec, 2);  // acknowledged in generation 2 only
    before = EncodeDatabase(exec.Snapshot());
    exec.Stop();
  }
  env.DropUnsynced();
  {
    ShardedExecutor exec(&env, "db", options);
    const Status started = exec.Start();
    ASSERT_TRUE(started.ok()) << started;
    EXPECT_EQ(EncodeDatabase(exec.Snapshot()), before);
    exec.Stop();  // Start() removed generation 2 and emptied generation 0
  }
  {
    // Empty logs: the sequences restart, and three commits per shard
    // reach the numbers generation 2 held.
    ShardedExecutor exec(&env, "db", options);
    ASSERT_TRUE(exec.Start().ok());
    for (int64_t value = 3; value <= 5; ++value) modify(exec, value);
    before = EncodeDatabase(exec.Snapshot());
    exec.Stop();
  }
  env.DropUnsynced();
  ShardedExecutor exec(&env, "db", options);
  const Status started = exec.Start();
  ASSERT_TRUE(started.ok()) << started;
  EXPECT_EQ(EncodeDatabase(exec.Snapshot()), before);
  EXPECT_EQ(exec.transaction_number(), 12u);
  exec.Stop();
}

/// InMemoryEnv that, once armed, parks the first append to the checkpoint
/// image (a segment file or the segment manifest) until Release().
class ParkImageEnv : public InMemoryEnv {
 public:
  void Arm() { armed_ = true; }
  void WaitUntilParked() {
    std::unique_lock<std::mutex> lock(park_mutex_);
    park_cv_.wait(lock, [this] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(park_mutex_);
    released_ = true;
    park_cv_.notify_all();
  }

  Status Append(const std::string& path, std::string_view data) override {
    const std::string_view name =
        std::string_view(path).substr(path.rfind('/') + 1);
    if ((IsSegmentFileName(name) || name == kCompactManifestFile) &&
        armed_.exchange(false)) {
      std::unique_lock<std::mutex> lock(park_mutex_);
      parked_ = true;
      park_cv_.notify_all();
      park_cv_.wait(lock, [this] { return released_; });
    }
    return InMemoryEnv::Append(path, data);
  }

 private:
  std::atomic<bool> armed_{false};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  bool parked_ = false;
  bool released_ = false;
};

TEST(ShardedExecutorTest, CommitsProceedWhileTheImageIsWrittenAndStopWaits) {
  ParkImageEnv env;
  ShardedOptions options = FastOptions(2);
  ShardedExecutor exec(&env, "db", options);
  ASSERT_TRUE(exec.Start().ok());
  const std::string on0 = NameOnShard(0, 2);
  const std::string on1 = NameOnShard(1, 2);
  for (const std::string& name : {on0, on1}) {
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        name, RelationType::kRollback, EmpSchema()}})
                    .ok());
  }

  // The checkpoint switches generations, then parks in its image write.
  env.Arm();
  std::future<Status> checkpoint =
      std::async(std::launch::async, [&exec] { return exec.Checkpoint(); });
  env.WaitUntilParked();

  // Both shards keep committing, into the new generation.
  for (const std::string& name : {on0, on1}) {
    ASSERT_TRUE(
        exec.Submit(Command{ModifySnapshotCmd{name, EmpState({{"a", 1}})}})
            .ok());
  }
  const std::string before = EncodeDatabase(exec.Snapshot());
  const TransactionNumber txn = exec.transaction_number();
  EXPECT_TRUE(env.Exists("db/" + ShardWalFile(0, 1)));
  EXPECT_TRUE(env.Exists("db/" + ShardWalFile(0)));  // not yet covered

  // Stop() must wait for the image write: only then are the generations
  // it covers deleted, and nothing may be left half-done on disk.
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    exec.Stop();
    stopped = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(stopped.load()) << "Stop() returned during an image write";
  env.Release();
  stopper.join();
  EXPECT_TRUE(checkpoint.get().ok());

  auto logs = ListShardedLogs(env, "db", 2);
  ASSERT_TRUE(logs.ok()) << logs.status();
  ASSERT_EQ(logs->size(), 3u);
  for (const ShardedLogName& log : *logs) {
    EXPECT_EQ(log.generation, 1u) << log.file;
  }

  ShardedExecutor reopened(&env, "db", options);
  ASSERT_TRUE(reopened.Start().ok());
  EXPECT_EQ(reopened.transaction_number(), txn);
  EXPECT_EQ(reopened.last_recovery().checkpoint_txn, 2u);
  EXPECT_EQ(reopened.last_recovery().replayed_batches, 2u);
  EXPECT_EQ(EncodeDatabase(reopened.Snapshot()), before);
  reopened.Stop();
}

TEST(ShardedExecutorTest, PermanentWriteFaultDegradesAllShardsReadersServe) {
  FaultInjectionEnv env;
  ShardedOptions options = FastOptions(2);
  ShardedExecutor exec(&env, "db", options);
  ASSERT_TRUE(exec.Start().ok());
  const std::string on0 = NameOnShard(0, 2);
  const std::string on1 = NameOnShard(1, 2);
  for (const std::string& name : {on0, on1}) {
    ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                        name, RelationType::kRollback, EmpSchema()}})
                    .ok());
  }
  const TransactionNumber epoch = exec.transaction_number();

  FaultPlanOptions plan;
  plan.transient_error_rate = 1.0;  // permanent: never heals
  env.ArmPlan(1, plan);
  const auto failing =
      exec.Submit(Command{ModifySnapshotCmd{on0, EmpState({{"a", 1}})}});
  ASSERT_FALSE(failing.ok());
  EXPECT_EQ(failing.status().code(), ErrorCode::kIoError);
  EXPECT_TRUE(exec.degraded());
  EXPECT_EQ(exec.degraded_reason().code(), ErrorCode::kIoError);

  // Degraded mode is executor-wide: a sentence homed on the OTHER shard is
  // refused at the door with the distinct read-only code.
  const auto refused =
      exec.Submit(Command{ModifySnapshotCmd{on1, EmpState({{"b", 2}})}});
  EXPECT_EQ(refused.status().code(), ErrorCode::kReadOnly);
  EXPECT_GE(exec.stats().rejected_read_only, 1u);

  // Readers keep serving the last published epoch.
  Session session = exec.OpenSession();
  EXPECT_EQ(session.epoch(), epoch);
  EXPECT_TRUE(session.Rollback(on0).ok());

  // The way out: repair the fault, Stop() + Start().
  env.DisarmPlan();
  exec.Stop();
  ASSERT_TRUE(exec.Start().ok());
  EXPECT_FALSE(exec.degraded());
  EXPECT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{on0, EmpState({{"a", 1}})}}).ok());
  exec.Stop();
}

}  // namespace
}  // namespace ttra
