// Experiment E2: cost of the rollback operator ρ(R, N) as history length
// grows, for each storage engine and for three probe positions (oldest
// state, middle, current). The paper's direct semantics (full-copy) gives
// O(log h) lookups; delta pays O(h) replay; checkpointed delta bounds the
// replay by the checkpoint interval.

#include <benchmark/benchmark.h>

#include "rollback/database.h"
#include "workload/generator.h"

namespace ttra {
namespace {

constexpr size_t kStateSize = 256;
constexpr double kChurn = 0.1;

Database BuildDatabase(StorageKind kind, size_t history,
                       size_t checkpoint_interval,
                       size_t cache_capacity = kDefaultFindStateCacheCapacity) {
  workload::Generator gen(7);
  Database db(DatabaseOptions{kind, checkpoint_interval, cache_capacity});
  const Schema schema = *Schema::Make({{"id", ValueType::kInt},
                                       {"payload", ValueType::kString}});
  (void)db.DefineRelation("r", RelationType::kRollback, schema);
  SnapshotState state = gen.RandomState(schema, kStateSize);
  for (size_t i = 0; i < history; ++i) {
    (void)db.ModifyState("r", state);
    state = gen.MutateState(state, kChurn);
  }
  return db;
}

enum Probe { kOldest = 0, kMiddle = 1, kCurrent = 2 };

void RunRollback(benchmark::State& state, StorageKind kind) {
  const size_t history = static_cast<size_t>(state.range(0));
  const Probe probe = static_cast<Probe>(state.range(1));
  Database db = BuildDatabase(kind, history, 16);
  const TransactionNumber target =
      probe == kOldest ? 2
      : probe == kMiddle ? 1 + history / 2
                         : db.transaction_number();
  for (auto _ : state) {
    auto result = db.Rollback("r", target);
    benchmark::DoNotOptimize(result);
  }
  state.counters["history"] = static_cast<double>(history);
  state.counters["bytes"] = static_cast<double>(db.ApproxBytes());
}

void BM_RollbackFullCopy(benchmark::State& state) {
  RunRollback(state, StorageKind::kFullCopy);
}
void BM_RollbackDelta(benchmark::State& state) {
  RunRollback(state, StorageKind::kDelta);
}
void BM_RollbackCheckpoint(benchmark::State& state) {
  RunRollback(state, StorageKind::kCheckpoint);
}
void BM_RollbackReverseDelta(benchmark::State& state) {
  RunRollback(state, StorageKind::kReverseDelta);
}

void RollbackArgs(benchmark::internal::Benchmark* bench) {
  for (int history : {16, 64, 256, 1024}) {
    for (int probe : {kOldest, kMiddle, kCurrent}) {
      bench->Args({history, probe});
    }
  }
}

BENCHMARK(BM_RollbackFullCopy)->Apply(RollbackArgs);
BENCHMARK(BM_RollbackDelta)->Apply(RollbackArgs);
BENCHMARK(BM_RollbackCheckpoint)->Apply(RollbackArgs);
BENCHMARK(BM_RollbackReverseDelta)->Apply(RollbackArgs);

// ρ(R, ∞) — the common case: always the tail, cheap for every engine.
void BM_RollbackCurrentInf(benchmark::State& state) {
  const StorageKind kind = static_cast<StorageKind>(state.range(0));
  Database db = BuildDatabase(kind, 256, 16);
  for (auto _ : state) {
    auto result = db.Rollback("r");
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(std::string(StorageKindName(kind)));
}
BENCHMARK(BM_RollbackCurrentInf)->DenseRange(0, 3);

// --- Experiment E12: repeated ρ(R, N) with the FINDSTATE cache on/off ---
//
// Rolling a delta-backed relation repeatedly to the same past transaction
// is the worst case for pure replay (O(history) per call) and the best
// case for the reconstruction cache (O(1) after the first call).

void RunRepeatedRollback(benchmark::State& state, size_t cache_capacity) {
  const size_t history = static_cast<size_t>(state.range(0));
  Database db = BuildDatabase(StorageKind::kDelta, history, 16,
                              cache_capacity);
  const TransactionNumber middle = 1 + history / 2;
  for (auto _ : state) {
    auto result = db.Rollback("r", middle);
    benchmark::DoNotOptimize(result);
  }
  state.counters["history"] = static_cast<double>(history);
}

void BM_RepeatedRollbackDeltaCached(benchmark::State& state) {
  RunRepeatedRollback(state, kDefaultFindStateCacheCapacity);
}
void BM_RepeatedRollbackDeltaUncached(benchmark::State& state) {
  RunRepeatedRollback(state, 0);
}
BENCHMARK(BM_RepeatedRollbackDeltaCached)->Range(64, 1024);
BENCHMARK(BM_RepeatedRollbackDeltaUncached)->Range(64, 1024);

// Checkpoint-interval sweep at fixed history: the E2/E3 tradeoff dial.
void BM_RollbackCheckpointInterval(benchmark::State& state) {
  const size_t interval = static_cast<size_t>(state.range(0));
  Database db = BuildDatabase(StorageKind::kCheckpoint, 512, interval);
  const TransactionNumber middle = 1 + 256;
  for (auto _ : state) {
    auto result = db.Rollback("r", middle);
    benchmark::DoNotOptimize(result);
  }
  state.counters["interval"] = static_cast<double>(interval);
  state.counters["bytes"] = static_cast<double>(db.ApproxBytes());
}
BENCHMARK(BM_RollbackCheckpointInterval)->RangeMultiplier(4)->Range(1, 256);

// --- Database::Clone() under structural sharing ---------------------------
//
// A clone copies one handle per relation and shares every log entry, so
// its cost is flat in the history length. The relation a command then
// changes is copied once: its log's entry pointers, never rows
// (BM_DatabaseCloneAndModify, which grows with the history).

void DatabaseCloneArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgsProduct({{0, 1, 2, 3}, {64, 1024, 8192}})
      ->ArgNames({"storage", "history"});
}

void BM_DatabaseClone(benchmark::State& state) {
  const StorageKind kind = static_cast<StorageKind>(state.range(0));
  const Database db = BuildDatabase(kind, static_cast<size_t>(state.range(1)),
                                    16);
  for (auto _ : state) {
    Database copy = db.Clone();
    benchmark::DoNotOptimize(copy);
  }
  state.SetLabel(std::string(StorageKindName(kind)));
}
BENCHMARK(BM_DatabaseClone)->Apply(DatabaseCloneArgs);

void BM_DatabaseCloneAndModify(benchmark::State& state) {
  const StorageKind kind = static_cast<StorageKind>(state.range(0));
  const Database db = BuildDatabase(kind, static_cast<size_t>(state.range(1)),
                                    16);
  const SnapshotState next = *db.Rollback("r", 2);
  for (auto _ : state) {
    Database copy = db.Clone();
    (void)copy.ModifyState("r", next);
    benchmark::DoNotOptimize(copy);
  }
  state.SetLabel(std::string(StorageKindName(kind)));
}
BENCHMARK(BM_DatabaseCloneAndModify)->Apply(DatabaseCloneArgs);

}  // namespace
}  // namespace ttra
