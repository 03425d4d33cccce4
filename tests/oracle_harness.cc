#include "oracle_harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "rollback/compact_store.h"
#include "storage/serialize.h"

namespace ttra::oracle {

int SeedCount(const char* variable, int fallback) {
  const char* setting = std::getenv(variable);
  if (setting == nullptr) return fallback;
  const long parsed = std::strtol(setting, nullptr, 10);
  return parsed > 0 ? static_cast<int>(parsed) : fallback;
}

void ForEachSeed(int begin, int end, int stride,
                 const std::function<void(uint64_t)>& run) {
  for (int seed = begin; seed < end; seed += stride) {
    run(static_cast<uint64_t>(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

OracleRun RunSerialOracle(const Program& program, Database start) {
  SerialExecutor serial;
  serial.Reset(std::move(start));
  OracleRun run;
  auto record_prefix = [&]() {
    (void)serial.Read([&](const Database& db) {
      run.txns.push_back(db.transaction_number());
      run.prefixes.push_back(EncodeDatabase(db));
      return Status::Ok();
    });
  };
  record_prefix();
  for (const Step& step : program) {
    auto body = [&](Database& db) { return ApplySentence(db, step.sentence); };
    const Result<TransactionNumber> txn =
        step.atomic ? serial.SubmitAtomic(body) : serial.Submit(body);
    run.acks.push_back(txn.ok());
    record_prefix();
  }
  run.final_db = serial.Snapshot();
  return run;
}

std::string Engine::Name() const {
  return kind == EngineKind::kDurable ? "durable"
                                      : "sharded-" + std::to_string(shards);
}

const std::vector<Engine>& Engines() {
  static const std::vector<Engine> engines = {
      {EngineKind::kDurable, 1},
      {EngineKind::kSharded, 1},
      {EngineKind::kSharded, 3},
  };
  return engines;
}

EngineUnderTest::EngineUnderTest(Engine engine, Env* env, std::string dir,
                                 ShardedOptions options)
    : engine_(engine), env_(env), dir_(std::move(dir)), options_(options) {
  options_.shards = engine_.shards;
}

EngineUnderTest::~EngineUnderTest() { Close(); }

Status EngineUnderTest::Open() {
  if (engine_.kind == EngineKind::kDurable) {
    durable_ = std::make_unique<DurableExecutor>(env_, dir_, options_.durable);
    return durable_->Open();
  }
  if (sharded_ == nullptr) {
    sharded_ = std::make_unique<ShardedExecutor>(env_, dir_, options_);
  }
  return sharded_->Start();
}

void EngineUnderTest::Close() {
  durable_.reset();
  if (sharded_ != nullptr) sharded_->Stop();
}

void RunSchedule(EngineUnderTest& engine, const Program& program,
                 const Schedule& schedule, std::vector<bool>& acks) {
  for (size_t i = 0; i < program.size(); ++i) {
    acks.push_back(engine.Submit(program[i]).ok());
    switch (schedule[i]) {
      case Action::kNone:
        break;
      case Action::kCheckpoint:
        ASSERT_TRUE(engine.Checkpoint().ok());
        break;
      case Action::kReopen:
        engine.Close();
        ASSERT_TRUE(engine.Open().ok()) << "reopen after step " << i;
        break;
      case Action::kCompactStorage:
        ASSERT_TRUE(engine.CompactStorage().ok());
        break;
    }
  }
}

bool IsIoFailure(const Status& status) {
  return status.code() == ErrorCode::kIoError ||
         status.code() == ErrorCode::kUnavailable ||
         status.code() == ErrorCode::kReadOnly;
}

void RunCrashPoint(const Engine& engine, uint64_t fault_at,
                   FaultInjectionEnv::FaultMode mode,
                   const ShardedOptions& options, const Program& program,
                   const OracleRun& oracle, uint64_t* total_ops,
                   const Schedule& schedule, bool require_dir_sync) {
  SCOPED_TRACE(engine.Name() + ": fault at op " + std::to_string(fault_at) +
               (mode == FaultInjectionEnv::FaultMode::kFailOp ? " (fail)"
                                                              : " (torn)") +
               (require_dir_sync ? ", strict directories" : ""));
  FaultInjectionEnv env;
  env.set_require_dir_sync(require_dir_sync);
  // `acked` = number of leading steps whose submit returned a non-I/O
  // status: those sentences are durably logged (kAlways policy) and MUST
  // be reflected by recovery. Command-level errors still count — the
  // sentence is in the log, its (partial or null) effect deterministic.
  size_t acked = 0;
  {
    EngineUnderTest live(engine, &env, "walled-garden", options);
    ASSERT_TRUE(live.Open().ok());
    if (fault_at != 0) env.InjectFault(fault_at, mode);
    for (size_t i = 0; i < program.size(); ++i) {
      const Result<TransactionNumber> result = live.Submit(program[i]);
      if (!result.ok() && IsIoFailure(result.status())) break;  // "crash"
      ++acked;
      const Action action = schedule.empty() ? Action::kNone : schedule[i];
      ASSERT_NE(action, Action::kReopen);
      if (action == Action::kCheckpoint && !live.Checkpoint().ok()) break;
      if (action == Action::kCompactStorage && !live.CompactStorage().ok()) {
        break;
      }
    }
    if (total_ops != nullptr) *total_ops = env.op_count();
  }

  // Power loss: unsynced bytes vanish; then a new process recovers.
  env.Crash();
  EngineUnderTest recovered(engine, &env, "walled-garden", options);
  const Status reopened = recovered.Open();
  ASSERT_TRUE(reopened.ok()) << reopened;
  const size_t matched =
      MatchPrefix(oracle.prefixes, EncodeDatabase(recovered.Snapshot()));
  ASSERT_LT(matched, oracle.prefixes.size())
      << "recovered database matches no prefix of the command sequence";
  EXPECT_GE(matched, acked)
      << "recovery lost an acknowledged commit: recovered prefix " << matched
      << " < acknowledged " << acked;

  ExpectResumes(recovered);
}

void ExpectResumes(EngineUnderTest& engine) {
  const TransactionNumber resumed = engine.transaction_number();
  const Result<TransactionNumber> txn = engine.Submit(Step{
      {DefineRelationCmd{"post_recovery", RelationType::kSnapshot,
                         EmpSchema()}}});
  ASSERT_TRUE(txn.ok()) << txn.status();
  EXPECT_EQ(*txn, resumed + 1);
}

std::string EncodeState(const SnapshotState& state) {
  std::string out;
  EncodeSnapshotState(state, out);
  return out;
}

std::string EncodeState(const HistoricalState& state) {
  std::string out;
  EncodeHistoricalState(state, out);
  return out;
}

namespace {

/// Calls `check(name, txn, holds_snapshot_states)` for every epoch
/// 0..final of every retains-history relation of `db`, stopping at the
/// first fatal failure.
template <typename Check>
void ForEachEpoch(const Database& db, const Check& check) {
  for (const std::string& name : db.RelationNames()) {
    const Relation* rel = db.Find(name);
    ASSERT_NE(rel, nullptr);
    if (!RetainsHistory(rel->type())) continue;
    for (TransactionNumber txn = 0; txn <= db.transaction_number(); ++txn) {
      SCOPED_TRACE(name + " @" + std::to_string(txn));
      check(name, txn, HoldsSnapshotStates(rel->type()));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Both answers fail alike or carry the same bytes; with `must_succeed`
/// both must succeed.
template <typename State>
void ExpectSameAnswer(const Result<State>& want, const Result<State>& got,
                      bool must_succeed = false) {
  if (must_succeed) {
    ASSERT_TRUE(want.ok()) << want.status();
  }
  ASSERT_EQ(want.ok(), got.ok()) << (want.ok() ? got : want).status();
  if (want.ok()) {
    ASSERT_EQ(EncodeState(*want), EncodeState(*got));
  }
}

}  // namespace

size_t MatchPrefix(const std::vector<std::string>& prefixes,
                   const std::string& state) {
  for (size_t k = prefixes.size(); k-- > 0;) {
    if (prefixes[k] == state) return k;
  }
  return prefixes.size();
}

void ExpectSameHistory(const Database& want, const Database& got) {
  ASSERT_EQ(want.transaction_number(), got.transaction_number());
  ForEachEpoch(want, [&](const std::string& name, TransactionNumber txn,
                         bool snapshot) {
    if (snapshot) {
      ExpectSameAnswer(want.Rollback(name, txn), got.Rollback(name, txn));
    } else {
      ExpectSameAnswer(want.RollbackHistorical(name, txn),
                       got.RollbackHistorical(name, txn));
    }
  });
}

void ExpectProbesMatch(CompactStore& store, const Database& db) {
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    // Epochs before the relation existed included: both sides say "empty
    // at the then-current schema".
    ForEachEpoch(db, [&](const std::string& name, TransactionNumber txn,
                         bool snapshot) {
      const Relation& rel = *db.Find(name);
      if (snapshot) {
        ExpectSameAnswer(rel.SnapshotAt(txn), store.ProbeSnapshot(name, txn),
                         /*must_succeed=*/true);
      } else {
        ExpectSameAnswer(rel.HistoricalAt(txn),
                         store.ProbeHistorical(name, txn),
                         /*must_succeed=*/true);
      }
    });
  }
}

void ExpectColdStoresMatch(Env* env, const std::string& dir,
                           const CompactOptions& compact,
                           const Database& oracle) {
  const std::string oracle_bytes = EncodeDatabase(oracle);
  // Probe cache off: identical answers, zero hits.
  CompactOptions uncached = compact;
  uncached.probe_cache_capacity = 0;
  CompactStore cold(env, dir, uncached);
  Result<Database> cold_db = cold.Load(DatabaseOptions{});
  ASSERT_TRUE(cold_db.ok()) << cold_db.status();
  ASSERT_EQ(oracle_bytes, EncodeDatabase(*cold_db));
  ExpectProbesMatch(cold, *cold_db);
  EXPECT_EQ(cold.stats().probe_cache_hits, 0u);

  // FINDSTATE cache off on the loaded database: the in-memory cache
  // integration, independent of the probe cache.
  DatabaseOptions no_cache;
  no_cache.findstate_cache_capacity = 0;
  CompactStore cacheless(env, dir, compact);
  Result<Database> cacheless_db = cacheless.Load(no_cache);
  ASSERT_TRUE(cacheless_db.ok()) << cacheless_db.status();
  ASSERT_EQ(oracle_bytes, EncodeDatabase(*cacheless_db));
  ExpectSameHistory(oracle, *cacheless_db);
}

void ReadCommittedOrder(const Env& env, const std::string& dir,
                        size_t shards, CommittedOrder& order) {
  Result<std::vector<ShardedLogName>> logs =
      ListShardedLogs(env, dir, shards);
  ASSERT_TRUE(logs.ok()) << logs.status();
  // Sequence numbers carry on across generations, so prepares keyed by
  // (shard, seq) pair with their commits across every file.
  std::map<std::pair<uint64_t, uint64_t>, ShardRecord> prepares;
  for (const ShardedLogName& log : *logs) {
    const std::string path = dir + "/" + log.file;
    Result<WalReadResult> wal = ReadWal(env, path);
    ASSERT_TRUE(wal.ok()) << wal.status();
    if (!log.coordinator) order.torn_tail |= wal->torn_tail;
    for (const std::string& payload : wal->records) {
      Result<ShardRecord> record = DecodeShardRecord(payload);
      ASSERT_TRUE(record.ok()) << record.status();
      if (log.coordinator) {
        ASSERT_EQ(record->kind, ShardRecordKind::kCoordCommit);
        ASSERT_TRUE(order.coordinator
                        .emplace(std::make_pair(record->shard, record->seq),
                                 std::move(*record))
                        .second);
        continue;
      }
      const std::pair<uint64_t, uint64_t> key(log.shard, record->seq);
      switch (record->kind) {
        case ShardRecordKind::kPrepare:
          ASSERT_TRUE(prepares.emplace(key, std::move(*record)).second)
              << "duplicate prepare in " << path;
          break;
        case ShardRecordKind::kCommit: {
          const auto prepared = prepares.find(key);
          ASSERT_NE(prepared, prepares.end())
              << "commit without prepare in " << path;
          order.batches.push_back(CommittedBatch{
              log.shard, record->seq, record->base_txn, record->post_txn,
              std::move(prepared->second.entries)});
          break;
        }
        case ShardRecordKind::kCrossPrepare:
          break;  // marker only; the home shard's prepare is authoritative
        case ShardRecordKind::kCoordCommit:
          FAIL() << "coordinator record in shard wal " << path;
      }
    }
  }
  std::sort(order.batches.begin(), order.batches.end(),
            [](const CommittedBatch& a, const CommittedBatch& b) {
              return a.base != b.base ? a.base < b.base : a.post < b.post;
            });
}

std::vector<CommittedBatch> ChainFrom(
    const std::vector<CommittedBatch>& batches, TransactionNumber from) {
  std::vector<CommittedBatch> chain;
  for (const CommittedBatch& batch : batches) {
    if (chain.empty() && batch.base < from && batch.post <= from) continue;
    if (batch.base != from) break;
    chain.push_back(batch);
    from = batch.post;
  }
  return chain;
}

void ReplayChain(const std::vector<CommittedBatch>& chain, Database start,
                 OracleRun& replay) {
  Program program;
  for (const CommittedBatch& batch : chain) {
    for (const GroupEntry& entry : batch.entries) {
      program.push_back(Step{entry.sentence, entry.atomic});
    }
  }
  replay = RunSerialOracle(program, std::move(start));
  size_t step = 0;
  for (const CommittedBatch& batch : chain) {
    SCOPED_TRACE("shard=" + std::to_string(batch.shard) +
                 " seq=" + std::to_string(batch.seq));
    ASSERT_EQ(batch.base, replay.txns[step]);
    step += batch.entries.size();
    ASSERT_EQ(batch.post, replay.txns[step]);
  }
}

Schema EmpSchema() {
  return *Schema::Make(
      {{"name", ValueType::kString}, {"salary", ValueType::kInt}});
}

SnapshotState EmpState(std::vector<std::pair<std::string, int64_t>> rows) {
  std::vector<Tuple> tuples;
  for (const auto& [name, salary] : rows) {
    tuples.push_back(Tuple{Value::String(name), Value::Int(salary)});
  }
  return *SnapshotState::Make(EmpSchema(), std::move(tuples));
}

Schema OneIntSchema() { return *Schema::Make({{"n", ValueType::kInt}}); }

SnapshotState IntRows(int64_t first, size_t count) {
  std::vector<Tuple> rows;
  for (size_t k = 0; k < count; ++k) {
    rows.push_back(Tuple{Value::Int(first + static_cast<int64_t>(k))});
  }
  return *SnapshotState::Make(OneIntSchema(), std::move(rows));
}

std::vector<Command> ModifyInts(const std::string& relation, int64_t first,
                                size_t count) {
  std::vector<Command> sentence;
  sentence.push_back(ModifySnapshotCmd{relation, IntRows(first, count)});
  return sentence;
}

std::map<std::string, std::string> DirImage(const Env& env,
                                            const std::string& dir) {
  std::map<std::string, std::string> image;
  const std::vector<std::string> names = *env.List(dir);
  for (const std::string& name : names) {
    image[name] = *env.Read(dir + "/" + name);
  }
  return image;
}

ShardedOptions FastOptions(size_t shards) {
  ShardedOptions options;
  options.durable.sync_policy = SyncPolicy::kAlways;
  options.durable.retry.max_attempts = 1;
  options.group_commit.max_latency = std::chrono::microseconds(0);
  options.shards = shards;
  return options;
}

std::string NameOnShard(size_t shard, size_t shards, int skip) {
  for (int i = 0;; ++i) {
    std::string candidate = "rel" + std::to_string(i);
    if (ShardOfName(candidate, shards) == shard && skip-- == 0) {
      return candidate;
    }
  }
}

}  // namespace ttra::oracle
