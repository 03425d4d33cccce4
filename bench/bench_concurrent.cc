// Experiment E15: concurrency and group commit. Two questions the MVCC
// split raises, measured: (1) do reader sessions scale — OpenSession is a
// shared_ptr grab and every evaluation runs on an immutable snapshot, so
// adding reader threads should add throughput; (2) what does group commit
// buy — batching N sentences into one WAL record + one fsync should move
// commit throughput from the fsync floor toward the apply floor as the
// batch grows. Both are measured on the single-shard ShardedExecutor,
// the group-commit engine `ttra run --group-commit` uses. A third asks
// what a checkpoint costs the writers (BM_CommitLatencyUnderCheckpoint).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <iostream>
#include <memory>
#include <thread>
#include <utility>

#include "rollback/sharded_executor.h"
#include "storage/env.h"
#include "workload/generator.h"

namespace ttra {
namespace {

#ifndef NDEBUG
/// Numbers from a debug build are not numbers; refuse to let them pass
/// silently (BENCH_*.json must be recorded from a Release build).
const int kDebugBuildWarning = [] {
  std::cerr
      << "\n"
      << "********************************************************\n"
      << "* WARNING: bench_concurrent built WITHOUT NDEBUG.      *\n"
      << "* Assertions are live; throughput numbers are          *\n"
      << "* meaningless. Rebuild with -DCMAKE_BUILD_TYPE=Release *\n"
      << "* before recording BENCH_concurrent.json.              *\n"
      << "********************************************************\n\n";
  return 0;
}();
#endif

constexpr char kDir[] = "/tmp/ttra_bench_concurrent";

Schema BenchSchema() {
  return *Schema::Make({{"id", ValueType::kInt}, {"v", ValueType::kInt}});
}

void ResetDir(Env* env) {
  (void)env->Remove(std::string(kDir) + "/wal.log");
  // The compact checkpoint: without this sweep the next iteration would
  // adopt the previous one's state (and its define would fail).
  if (Result<std::vector<std::string>> files = env->List(kDir); files.ok()) {
    for (const std::string& name : *files) {
      if (name == kCompactManifestFile || IsSegmentFileName(name)) {
        (void)env->Remove(std::string(kDir) + "/" + name);
      }
    }
  }
  // Sharded layout: every generation of every log.
  if (Result<std::vector<std::string>> files = env->List(kDir); files.ok()) {
    for (const std::string& name : *files) {
      if (ParseShardedLogName(name).has_value()) {
        (void)env->Remove(std::string(kDir) + "/" + name);
      }
    }
  }
  (void)env->Remove(std::string(kDir) + "/" + kShardManifestFile);
}

/// Commits/sec vs group-commit batch size, sync policy kAlways (every
/// acknowledged batch is fsync'ed). The bench thread submits
/// asynchronously and bounds the in-flight window, so the writer sees a
/// standing backlog and batches fill naturally up to max_batch; batch
/// size 1 degenerates to one fsync per sentence — the E11 floor.
void BM_GroupCommitThroughput(benchmark::State& state) {
  Env* env = Env::Default();
  ResetDir(env);
  ShardedOptions options;
  options.durable.sync_policy = SyncPolicy::kAlways;
  options.group_commit.max_batch = static_cast<size_t>(state.range(0));
  options.group_commit.max_latency = std::chrono::microseconds(0);
  ShardedExecutor exec(env, kDir, options);
  if (!exec.Start().ok()) {
    state.SkipWithError("cannot start executor");
    return;
  }
  const Schema schema = BenchSchema();
  workload::Generator gen(17);
  if (!exec.Submit(Command{DefineRelationCmd{
                       "emp", RelationType::kSnapshot, schema}})
           .ok()) {
    state.SkipWithError("define failed");
    return;
  }
  std::vector<std::vector<Command>> sentences;
  for (int i = 0; i < 128; ++i) {
    sentences.push_back({ModifySnapshotCmd{"emp", gen.RandomState(schema, 8)}});
  }
  size_t next = 0;
  std::deque<std::future<Result<TransactionNumber>>> inflight;
  for (auto _ : state) {
    inflight.push_back(exec.SubmitAsync(sentences[next]));
    next = (next + 1) % sentences.size();
    // A bounded window keeps memory flat and guarantees each counted
    // iteration is (or is about to be) durably committed.
    while (inflight.size() >= 256) {
      if (!inflight.front().get().ok()) {
        state.SkipWithError("commit failed");
        return;
      }
      inflight.pop_front();
    }
  }
  while (!inflight.empty()) {
    (void)inflight.front().get();
    inflight.pop_front();
  }
  const ShardedExecutor::Stats stats = exec.stats();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["fsyncs"] = static_cast<double>(stats.per_shard[0].wal.syncs);
  state.counters["batches"] = static_cast<double>(stats.batches);
  state.counters["avg_batch"] =
      stats.batches == 0
          ? 0.0
          : static_cast<double>(stats.commits) /
                static_cast<double>(stats.batches);
  exec.Stop();
  ResetDir(env);
}
BENCHMARK(BM_GroupCommitThroughput)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->ArgName("max_batch")
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Commits/sec vs shard count (Experiment E16), sync policy kAlways and
/// the E15-winning batch size. The workload modifies 16 relations
/// round-robin — their name hashes spread them across every shard — so
/// with N > 1 the encode/append/fsync pipeline runs on N writer threads
/// whose fsyncs overlap, while transaction-number assignment stays behind
/// the one global order lock. shards:1 is BM_GroupCommitThroughput's
/// engine at max_batch:64 over the 16-relation workload.
void BM_ShardedCommitThroughput(benchmark::State& state) {
  Env* env = Env::Default();
  ResetDir(env);
  ShardedOptions options;
  options.durable.sync_policy = SyncPolicy::kAlways;
  options.group_commit.max_batch = 64;
  options.group_commit.max_latency = std::chrono::microseconds(0);
  options.shards = static_cast<size_t>(state.range(0));
  ShardedExecutor exec(env, kDir, options);
  if (!exec.Start().ok()) {
    state.SkipWithError("cannot start executor");
    return;
  }
  const Schema schema = BenchSchema();
  workload::Generator gen(17);
  constexpr int kRelations = 16;
  std::vector<std::vector<Command>> sentences;
  for (int i = 0; i < kRelations; ++i) {
    const std::string name = "rel" + std::to_string(i);
    if (!exec.Submit(Command{DefineRelationCmd{
                         name, RelationType::kSnapshot, schema}})
             .ok()) {
      state.SkipWithError("define failed");
      return;
    }
    for (int j = 0; j < 8; ++j) {
      sentences.push_back({ModifySnapshotCmd{name, gen.RandomState(schema, 8)}});
    }
  }
  size_t next = 0;
  std::deque<std::future<Result<TransactionNumber>>> inflight;
  for (auto _ : state) {
    inflight.push_back(exec.SubmitAsync(sentences[next]));
    next = (next + 17) % sentences.size();  // 17 ⊥ 128: hits every sentence
    while (inflight.size() >= 256) {
      if (!inflight.front().get().ok()) {
        state.SkipWithError("commit failed");
        return;
      }
      inflight.pop_front();
    }
  }
  while (!inflight.empty()) {
    (void)inflight.front().get();
    inflight.pop_front();
  }
  const ShardedExecutor::Stats stats = exec.stats();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  uint64_t syncs = 0;
  for (const auto& shard : stats.per_shard) syncs += shard.wal.syncs;
  state.counters["fsyncs"] = static_cast<double>(syncs);
  state.counters["batches"] = static_cast<double>(stats.batches);
  state.counters["avg_batch"] =
      stats.batches == 0
          ? 0.0
          : static_cast<double>(stats.commits) /
                static_cast<double>(stats.batches);
  exec.Stop();
  ResetDir(env);
}
BENCHMARK(BM_ShardedCommitThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("shards")
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Submit→ack latencies of `count` closed-loop commits, `window` in
/// flight, in microseconds. The single shard acknowledges in order, so
/// waiting on the oldest future observes each ack in turn.
std::vector<double> CommitLatencies(
    ShardedExecutor& exec, const std::vector<std::vector<Command>>& sentences,
    size_t count, size_t window, bool* failed) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> latencies;
  latencies.reserve(count);
  std::deque<std::pair<std::future<Result<TransactionNumber>>, Clock::time_point>>
      inflight;
  auto collect = [&]() {
    if (!inflight.front().first.get().ok()) *failed = true;
    latencies.push_back(std::chrono::duration<double, std::micro>(
                            Clock::now() - inflight.front().second)
                            .count());
    inflight.pop_front();
  };
  for (size_t i = 0; i < count; ++i) {
    inflight.emplace_back(exec.SubmitAsync(sentences[i % sentences.size()]),
                          Clock::now());
    if (inflight.size() >= window) collect();
  }
  while (!inflight.empty()) collect();
  return latencies;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t k = static_cast<size_t>(q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

/// Commit latency under checkpoints (Experiment E15): each iteration runs
/// the same closed-loop commit phase twice on one single-shard executor,
/// once alone and once while a second thread checkpoints back to back,
/// and the counters compare the two phases' p99 within the run
/// (p99_ratio = with / without, 1.0 = checkpoints cost the writers
/// nothing). A checkpoint switches the logs to a new generation under a
/// brief exclusive gate and writes its image while commits continue, so
/// the ratio stays near 1 where holding the gate across the image would
/// stall every writer for the whole write.
void BM_CommitLatencyUnderCheckpoint(benchmark::State& state) {
  Env* env = Env::Default();
  ResetDir(env);
  ShardedOptions options;
  options.durable.sync_policy = SyncPolicy::kAlways;
  options.group_commit.max_latency = std::chrono::microseconds(0);
  ShardedExecutor exec(env, kDir, options);
  if (!exec.Start().ok()) {
    state.SkipWithError("cannot start executor");
    return;
  }
  const Schema schema = BenchSchema();
  workload::Generator gen(41);
  constexpr int kRelations = 16;
  std::vector<std::vector<Command>> sentences;
  for (int i = 0; i < kRelations; ++i) {
    const std::string name = "rel" + std::to_string(i);
    if (!exec.Submit(Command{DefineRelationCmd{
                         name, RelationType::kRollback, schema}})
             .ok()) {
      state.SkipWithError("define failed");
      return;
    }
    for (int j = 0; j < 8; ++j) {
      sentences.push_back({ModifySnapshotCmd{name, gen.RandomState(schema, 32)}});
    }
  }
  constexpr size_t kCommits = 1024;
  constexpr size_t kWindow = 32;
  std::vector<double> without;
  std::vector<double> with;
  std::vector<double> checkpoint_ms;  // written by the checkpointer only
  bool failed = false;
  for (auto _ : state) {
    std::vector<double> alone =
        CommitLatencies(exec, sentences, kCommits, kWindow, &failed);
    without.insert(without.end(), alone.begin(), alone.end());

    std::atomic<bool> stop{false};
    std::atomic<bool> checkpoint_failed{false};
    std::thread checkpointer([&] {
      while (!stop.load()) {
        const auto start = std::chrono::steady_clock::now();
        if (!exec.Checkpoint().ok()) checkpoint_failed = true;
        checkpoint_ms.push_back(std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - start)
                                    .count());
      }
    });
    std::vector<double> racing =
        CommitLatencies(exec, sentences, kCommits, kWindow, &failed);
    stop = true;
    checkpointer.join();
    with.insert(with.end(), racing.begin(), racing.end());
    if (failed || checkpoint_failed) {
      state.SkipWithError("commit or checkpoint failed");
      break;
    }
  }
  const double p99_without = Percentile(without, 0.99);
  const double p99_with = Percentile(with, 0.99);
  state.SetItemsProcessed(static_cast<int64_t>(without.size() + with.size()));
  state.counters["p50_without_us"] = Percentile(without, 0.5);
  state.counters["p50_with_us"] = Percentile(with, 0.5);
  state.counters["p99_without_us"] = p99_without;
  state.counters["p99_with_us"] = p99_with;
  state.counters["p99_ratio"] = p99_without == 0 ? 0 : p99_with / p99_without;
  state.counters["checkpoints"] = static_cast<double>(checkpoint_ms.size());
  state.counters["checkpoint_p50_ms"] = Percentile(checkpoint_ms, 0.5);
  exec.Stop();
  ResetDir(env);
}
// A fixed iteration count (8 × 2048 commits, some 8 checkpoints): enough
// for a p99 however short --benchmark_min_time is.
BENCHMARK(BM_CommitLatencyUnderCheckpoint)
    ->Iterations(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Reader-session scaling, 1→16 threads: every thread opens a pinned
/// session and evaluates ρ(emp, n) for random committed n. The database
/// holds 64 committed states under the delta engine with a small
/// FINDSTATE cache, so reads mix cache hits with log reconstruction —
/// the realistic mix a hot rollback relation serves.
ShardedExecutor* g_read_exec = nullptr;

void BM_ReaderSessionScaling(benchmark::State& state) {
  if (state.thread_index() == 0) {
    Env* env = Env::Default();
    ResetDir(env);
    ShardedOptions options;
    options.durable.db.storage = StorageKind::kDelta;
    options.durable.db.checkpoint_interval = 8;
    options.durable.db.findstate_cache_capacity = 8;
    g_read_exec = new ShardedExecutor(env, kDir, options);
    if (!g_read_exec->Start().ok()) {
      state.SkipWithError("cannot start executor");
      return;
    }
    const Schema schema = BenchSchema();
    workload::Generator gen(29);
    (void)g_read_exec->Submit(Command{
        DefineRelationCmd{"emp", RelationType::kRollback, schema}});
    for (int i = 0; i < 64; ++i) {
      (void)g_read_exec->Submit(
          Command{ModifySnapshotCmd{"emp", gen.RandomState(schema, 32)}});
    }
  }
  uint64_t salt = static_cast<uint64_t>(state.thread_index()) + 1;
  uint64_t failures = 0;
  for (auto _ : state) {
    Session session = g_read_exec->OpenSession();
    salt = salt * 6364136223846793005u + 1442695040888963407u;
    const TransactionNumber txn = 2 + (salt >> 33) % (session.epoch() - 1);
    auto result = session.Rollback("emp", txn);
    if (!result.ok()) ++failures;
    benchmark::DoNotOptimize(result);
  }
  if (failures != 0) state.SkipWithError("rollback failed");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  if (state.thread_index() == 0) {
    g_read_exec->Stop();
    delete g_read_exec;
    g_read_exec = nullptr;
    ResetDir(Env::Default());
  }
}
BENCHMARK(BM_ReaderSessionScaling)
    ->ThreadRange(1, 16)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Raw physical floor under the executors: N framed records in ONE
/// Env::Append plus one fsync, vs N separate append+fsync round trips.
/// The ratio bounds what any group-commit policy can recover.
void BM_WalBatchedAppendSync(benchmark::State& state) {
  Env* env = Env::Default();
  (void)env->CreateDir(kDir);
  const std::string path = std::string(kDir) + "/raw.log";
  WalWriter writer(env, path);
  if (!writer.Create().ok()) {
    state.SkipWithError("cannot create wal");
    return;
  }
  const size_t batch = static_cast<size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  const std::vector<std::string> payloads(batch, std::string(256, 'x'));
  for (auto _ : state) {
    if (batched) {
      if (!writer.AddRecords(payloads).ok() || !writer.Sync().ok()) {
        state.SkipWithError("wal write failed");
        return;
      }
    } else {
      for (const std::string& payload : payloads) {
        if (!writer.AddRecord(payload).ok() || !writer.Sync().ok()) {
          state.SkipWithError("wal write failed");
          return;
        }
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
  (void)env->Remove(path);
}
BENCHMARK(BM_WalBatchedAppendSync)
    ->ArgsProduct({{8, 64}, {0, 1}})
    ->ArgNames({"records", "batched"})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ttra
