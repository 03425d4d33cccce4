#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "oracle_harness.h"

namespace ttra {
namespace {

using oracle::EmpSchema;
using oracle::EmpState;
using oracle::IsIoFailure;
using oracle::Program;

// The crash-recovery contract under SyncPolicy::kAlways, verified against
// the paper's semantics through the oracle harness (DESIGN.md §7): the
// database is a pure function of its committed command sequence (C⟦·⟧),
// so after a crash at ANY write point of ANY engine, the recovered
// database must equal the serial oracle's evaluation of some *prefix* of
// the submitted sentence sequence — and that prefix must contain every
// sentence whose submission was acknowledged before the crash.

Schema MakeSchema(std::vector<Attribute> attributes) {
  return *Schema::Make(std::move(attributes));
}

HistoricalState HistState(
    std::initializer_list<std::tuple<const char*, Chronon, Chronon>> rows) {
  std::vector<HistoricalTuple> tuples;
  for (const auto& [name, from, to] : rows) {
    tuples.push_back(HistoricalTuple{Tuple{Value::String(name)},
                                     TemporalElement::Span(from, to)});
  }
  return *HistoricalState::Make(MakeSchema({{"name", ValueType::kString}}),
                                std::move(tuples));
}

/// A workload exercising every command form, both submit modes, and —
/// deliberately — command-level failures, whose exact partial effects must
/// also survive recovery.
Program Workload() {
  Program steps;
  steps.push_back(
      {{DefineRelationCmd{"emp", RelationType::kRollback, EmpSchema()}}});
  steps.push_back({{ModifySnapshotCmd{"emp", EmpState({{"ed", 100}})}}});
  steps.push_back({{ModifySnapshotCmd{
      "emp", EmpState({{"ed", 100}, {"amy", 200}})}}});
  // One multi-command sentence, applied atomically.
  steps.push_back(
      {{DefineRelationCmd{"hist", RelationType::kTemporal,
                          MakeSchema({{"name", ValueType::kString}})},
        ModifyHistoricalCmd{"hist", HistState({{"x", 0, 10}})}},
       /*atomic=*/true});
  // Paper sequencing with a failing command in the middle: define_relation
  // on a bound identifier fails, the rest of the sentence still applies.
  steps.push_back(
      {{ModifySnapshotCmd{"emp", EmpState({{"amy", 250}})},
        DefineRelationCmd{"emp", RelationType::kSnapshot, EmpSchema()},
        ModifyHistoricalCmd{"hist", HistState({{"x", 0, 20}})}}});
  // An atomic sentence that fails: must leave no trace, before and after
  // recovery.
  steps.push_back(
      {{ModifySnapshotCmd{"emp", EmpState({{"ghost", 1}})},
        ModifySnapshotCmd{"missing", EmpState({})}},
       /*atomic=*/true});
  steps.push_back({{ModifySchemaCmd{
      "emp", MakeSchema({{"name", ValueType::kString},
                        {"salary", ValueType::kInt},
                        {"dept", ValueType::kString}})}}});
  steps.push_back({{DeleteRelationCmd{"hist"}}});
  steps.push_back(
      {{DefineRelationCmd{"now", RelationType::kSnapshot,
                          MakeSchema({{"n", ValueType::kInt}})},
        ModifySnapshotCmd{"now",
                          *SnapshotState::Make(
                              MakeSchema({{"n", ValueType::kInt}}),
                              {Tuple{Value::Int(7)}})}}});
  return steps;
}

/// Submits every step of the workload; command-level failures are part of
/// it, storage failures are not.
void SubmitAll(DurableExecutor& exec, const Program& steps) {
  for (const oracle::Step& step : steps) {
    auto r = step.atomic ? exec.SubmitAtomic(step.sentence)
                         : exec.Submit(step.sentence);
    if (!r.ok()) {
      ASSERT_FALSE(IsIoFailure(r.status())) << r.status();
    }
  }
}

/// Crashes every engine of the harness's list at every op of the workload.
/// The fault-free run of each engine sizes its sweep; faults are armed
/// relative to the op counter after Open(), so high n values run the
/// workload to completion and just re-verify clean recovery.
void SweepEveryEngine(FaultInjectionEnv::FaultMode mode,
                      const ShardedOptions& options) {
  const Program steps = Workload();
  const oracle::OracleRun oracle = oracle::RunSerialOracle(steps);
  for (const oracle::Engine& engine : oracle::Engines()) {
    uint64_t total_ops = 0;
    oracle::RunCrashPoint(engine, 0, mode, options, steps, oracle, &total_ops);
    ASSERT_GT(total_ops, 0u);
    for (uint64_t n = 1; n <= total_ops; ++n) {
      oracle::RunCrashPoint(engine, n, mode, options, steps, oracle);
    }
  }
}

class CrashRecoveryTest
    : public ::testing::TestWithParam<FaultInjectionEnv::FaultMode> {};

INSTANTIATE_TEST_SUITE_P(
    Modes, CrashRecoveryTest,
    ::testing::Values(FaultInjectionEnv::FaultMode::kFailOp,
                      FaultInjectionEnv::FaultMode::kTornAppend),
    [](const auto& info) {
      return info.param == FaultInjectionEnv::FaultMode::kFailOp
                 ? "FailOp"
                 : "TornAppend";
    });

TEST_P(CrashRecoveryTest, EveryFaultPointRecoversToAnAckedPrefix) {
  SweepEveryEngine(GetParam(), ShardedOptions{});  // kAlways
}

TEST_P(CrashRecoveryTest, EveryFaultPointWithAutoCheckpoint) {
  ShardedOptions options;
  options.durable.checkpoint_every = 2;  // exercise checkpoint faults
  SweepEveryEngine(GetParam(), options);
}

// A checkpoint's own protocol — create the next log generation, switch
// to it, write the image, delete the retired generation — crashed at every
// op, with commits on both sides, on Sharded(1) and Sharded(3). The sweep
// covers every op of the run, so each window (a checkpoint, a storage
// compaction, a second checkpoint) is crashed at each of its ops.
TEST_P(CrashRecoveryTest, EveryFaultPointOfTheCheckpointProtocol) {
  const Program steps = Workload();
  const oracle::OracleRun oracle = oracle::RunSerialOracle(steps);
  oracle::Schedule schedule(steps.size(), oracle::Action::kNone);
  schedule[2] = oracle::Action::kCheckpoint;
  schedule[4] = oracle::Action::kCompactStorage;
  schedule[6] = oracle::Action::kCheckpoint;
  const ShardedOptions options;
  // Also under the strict POSIX rule for directory entries: the new
  // generations' creates and the old ones' removes survive a crash only
  // once the directory is synced.
  for (const bool require_dir_sync : {false, true}) {
    for (const oracle::Engine& engine : oracle::Engines()) {
      if (engine.kind != oracle::EngineKind::kSharded) continue;
      uint64_t total_ops = 0;
      oracle::RunCrashPoint(engine, 0, GetParam(), options, steps, oracle,
                            &total_ops, schedule, require_dir_sync);
      ASSERT_GT(total_ops, 0u);
      for (uint64_t n = 1; n <= total_ops; ++n) {
        oracle::RunCrashPoint(engine, n, GetParam(), options, steps, oracle,
                              nullptr, schedule, require_dir_sync);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(CrashRecoveryTest, FaultDuringRecoveryItselfIsRetryable) {
  const Program steps = Workload();
  const oracle::OracleRun oracle = oracle::RunSerialOracle(steps);

  // Populate a directory, then sweep faults over recovery's own writes
  // (checkpoint republication, WAL truncation): a failed Open must leave
  // the on-disk state recoverable by a later, fault-free Open.
  FaultInjectionEnv env;
  {
    DurableExecutor exec(&env, "d", DurableOptions{});
    ASSERT_TRUE(exec.Open().ok());
    SubmitAll(exec, steps);
  }
  const uint64_t ops_before = env.op_count();
  // Measure how many ops one recovery takes.
  {
    DurableExecutor probe(&env, "d", DurableOptions{});
    ASSERT_TRUE(probe.Open().ok());
  }
  const uint64_t recovery_ops = env.op_count() - ops_before;
  ASSERT_GT(recovery_ops, 0u);

  for (uint64_t n = 1; n <= recovery_ops; ++n) {
    SCOPED_TRACE("recovery fault at op " + std::to_string(n));
    env.InjectFault(n, FaultInjectionEnv::FaultMode::kFailOp);
    DurableExecutor exec(&env, "d", DurableOptions{});
    Status first = exec.Open();
    if (!first.ok()) {
      env.Crash();
      ASSERT_TRUE(exec.Open().ok()) << "retry after recovery fault failed";
    }
    EXPECT_EQ(EncodeDatabase(exec.Snapshot()), oracle.prefixes.back());
  }
}

TEST(CrashRecoveryTest, RecoveryIsIdempotent) {
  InMemoryEnv env;
  DurableOptions options;
  DurableExecutor exec(&env, "d", options);
  ASSERT_TRUE(exec.Open().ok());
  SubmitAll(exec, Workload());
  const std::string want = EncodeDatabase(exec.Snapshot());
  // Recover twice in a row without any crash: state must be stable. The
  // first recovery replays the log; its checkpoint then covers every
  // record, so the second one skips them all and applies nothing.
  for (int round = 0; round < 2; ++round) {
    DurableExecutor again(&env, "d", options);
    ASSERT_TRUE(again.Open().ok());
    EXPECT_EQ(EncodeDatabase(again.Snapshot()), want) << "round " << round;
    if (round == 1) {
      EXPECT_EQ(again.last_recovery().replayed_records, 0u);
    }
  }
}

TEST(CrashRecoveryTest, FailedExecutorRejectsWorkUntilReopened) {
  FaultInjectionEnv env;
  DurableExecutor exec(&env, "d", DurableOptions{});
  ASSERT_TRUE(exec.Open().ok());
  env.InjectFault(1, FaultInjectionEnv::FaultMode::kFailOp);
  auto failed = exec.Submit(Command(DefineRelationCmd{
      "r", RelationType::kSnapshot, EmpSchema()}));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), ErrorCode::kIoError);
  EXPECT_FALSE(exec.healthy());
  // Fail-stop: even though the env works again, the executor refuses.
  auto rejected = exec.Submit(Command(DefineRelationCmd{
      "r", RelationType::kSnapshot, EmpSchema()}));
  EXPECT_EQ(rejected.status().code(), ErrorCode::kUnavailable);
  // Reopen re-derives state from disk and resumes service.
  ASSERT_TRUE(exec.Open().ok());
  EXPECT_TRUE(exec.healthy());
  EXPECT_TRUE(exec.Submit(Command(DefineRelationCmd{
                       "r", RelationType::kSnapshot, EmpSchema()}))
                  .ok());
}

// --- Transient-error retry and read-only degraded mode ---------------------

TEST(RetryTest, RetryRidesOutAOneShotWriteFault) {
  FaultInjectionEnv env;
  DurableOptions options;
  options.retry.max_attempts = 3;
  options.retry.sleeper = [](std::chrono::microseconds) {};
  DurableExecutor exec(&env, "d", options);
  ASSERT_TRUE(exec.Open().ok());
  env.InjectFault(1, FaultInjectionEnv::FaultMode::kFailOp);
  // Without retry this exact schedule fails stop (see
  // FailedExecutorRejectsWorkUntilReopened); with it the commit lands.
  auto result = exec.Submit(Command(DefineRelationCmd{
      "r", RelationType::kSnapshot, EmpSchema()}));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(exec.healthy());
  const auto health = exec.health();
  EXPECT_EQ(health.transient_retries, 1u);
  EXPECT_EQ(health.retry_successes, 1u);
  EXPECT_TRUE(health.last_write_error.ok());
  // The log is intact: recovery replays the retried commit.
  DurableExecutor recovered(&env, "d", DurableOptions{});
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(EncodeDatabase(recovered.Snapshot()), EncodeDatabase(exec.Snapshot()));
}

TEST(RetryTest, TornAppendIsCutBackBeforeTheRetry) {
  FaultInjectionEnv env;
  DurableOptions options;
  options.retry.max_attempts = 2;
  options.retry.sleeper = [](std::chrono::microseconds) {};
  DurableExecutor exec(&env, "d", options);
  ASSERT_TRUE(exec.Open().ok());
  env.InjectFault(1, FaultInjectionEnv::FaultMode::kTornAppend);
  auto result = exec.Submit(Command(DefineRelationCmd{
      "r", RelationType::kSnapshot, EmpSchema()}));
  ASSERT_TRUE(result.ok()) << result.status();
  // The torn frame must NOT be in the log: ResetTail cut it before the
  // re-append, so the file parses cleanly end to end.
  auto wal = ReadWal(env, "d/wal.log");
  ASSERT_TRUE(wal.ok());
  EXPECT_FALSE(wal->torn_tail);
  EXPECT_EQ(wal->records.size(), 1u);
}

TEST(RetryTest, BackoffDoublesUpToTheCapOnPersistentFailure) {
  FaultInjectionEnv env;
  DurableOptions options;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = std::chrono::microseconds(100);
  options.retry.max_backoff = std::chrono::microseconds(300);
  std::vector<std::chrono::microseconds> sleeps;
  options.retry.sleeper = [&](std::chrono::microseconds d) {
    sleeps.push_back(d);
  };
  DurableExecutor exec(&env, "d", options);
  ASSERT_TRUE(exec.Open().ok());
  FaultPlanOptions plan;
  plan.transient_error_rate = 1.0;  // a "transient" fault that never heals
  env.ArmPlan(1, plan);
  auto result = exec.Submit(Command(DefineRelationCmd{
      "r", RelationType::kSnapshot, EmpSchema()}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kIoError);
  EXPECT_FALSE(exec.healthy());
  EXPECT_EQ(exec.health().last_write_error.code(), ErrorCode::kIoError);
  EXPECT_EQ(sleeps, (std::vector<std::chrono::microseconds>{
                        std::chrono::microseconds(100),
                        std::chrono::microseconds(200),
                        std::chrono::microseconds(300)}));  // capped, not 400
}

TEST(RetryTest, ResourceExhaustionIsNotRetried) {
  FaultInjectionEnv env;
  DurableOptions options;
  options.retry.max_attempts = 5;
  // A sleeper that fails the test if it is ever consulted: disk-full must
  // fail immediately, not burn retries that cannot succeed.
  options.retry.sleeper = [](std::chrono::microseconds) {
    FAIL() << "kResourceExhausted must not be retried";
  };
  DurableExecutor exec(&env, "d", options);
  ASSERT_TRUE(exec.Open().ok());
  FaultPlanOptions plan;
  plan.capacity_bytes = 1;  // store already over quota: every append fails
  env.ArmPlan(1, plan);
  auto result = exec.Submit(Command(DefineRelationCmd{
      "r", RelationType::kSnapshot, EmpSchema()}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_FALSE(exec.healthy());
  EXPECT_EQ(exec.health().transient_retries, 0u);
}

TEST(DegradedModeTest, ReadersKeepServingWhileWritesAreRefused) {
  FaultInjectionEnv env;
  ShardedOptions options;
  ShardedExecutor exec(&env, "d", options);
  ASSERT_TRUE(exec.Start().ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                       "emp", RelationType::kRollback, EmpSchema()}})
                  .ok());
  ASSERT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{"emp", EmpState({{"ed", 100}})}})
          .ok());
  Session before = exec.OpenSession();
  const TransactionNumber epoch = before.epoch();
  ASSERT_EQ(epoch, 2u);

  // A permanent write failure flips the executor into read-only mode.
  FaultPlanOptions plan;
  plan.transient_error_rate = 1.0;
  env.ArmPlan(1, plan);
  auto failing =
      exec.Submit(Command{ModifySnapshotCmd{"emp", EmpState({{"amy", 1}})}});
  ASSERT_FALSE(failing.ok());
  EXPECT_EQ(failing.status().code(), ErrorCode::kIoError);
  EXPECT_TRUE(exec.degraded());
  EXPECT_EQ(exec.degraded_reason().code(), ErrorCode::kIoError);

  // New writes are refused with the DISTINCT read-only code — callers can
  // tell "storage is broken" from "command was wrong" and "not running".
  auto refused =
      exec.Submit(Command{ModifySnapshotCmd{"emp", EmpState({{"bob", 2}})}});
  EXPECT_EQ(refused.status().code(), ErrorCode::kReadOnly);
  EXPECT_NE(refused.status().message().find("read-only"), std::string::npos);
  EXPECT_GE(exec.stats().rejected_read_only, 1u);
  EXPECT_TRUE(exec.stats().degraded);

  // Reader sessions — both pre-existing and new — keep answering at the
  // published epoch as if nothing happened.
  auto pre = before.Rollback("emp", epoch);
  ASSERT_TRUE(pre.ok()) << pre.status();
  Session after = exec.OpenSession();
  EXPECT_EQ(after.epoch(), epoch);  // the failed write published nothing
  auto post = after.Rollback("emp");
  ASSERT_TRUE(post.ok()) << post.status();
  EXPECT_EQ(exec.transaction_number(), epoch);

  // The documented way out: repair the fault, Stop() + Start().
  env.DisarmPlan();
  exec.Stop();
  ASSERT_TRUE(exec.Start().ok());
  EXPECT_FALSE(exec.degraded());
  EXPECT_TRUE(
      exec.Submit(Command{ModifySnapshotCmd{"emp", EmpState({{"amy", 1}})}})
          .ok());
}

TEST(DegradedModeTest, QueuedSentencesAreDrainedWithReadOnly) {
  // Sentences already in flight when the writer degrades must still get
  // answers (no broken promises), with the read-only code.
  FaultInjectionEnv env;
  ShardedOptions options;
  options.group_commit.max_batch = 1;  // one sentence per batch: the first
                                       // fails, the rest hit degraded mode
  ShardedExecutor exec(&env, "d", options);
  ASSERT_TRUE(exec.Start().ok());
  ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                       "emp", RelationType::kRollback, EmpSchema()}})
                  .ok());
  FaultPlanOptions plan;
  plan.transient_error_rate = 1.0;
  env.ArmPlan(1, plan);

  std::vector<std::future<Result<TransactionNumber>>> futures;
  for (int i = 0; i < 8; ++i) {
    std::vector<Command> sentence;
    sentence.push_back(ModifySnapshotCmd{"emp", EmpState({{"x", i}})});
    futures.push_back(exec.SubmitAsync(std::move(sentence)));
  }
  size_t io_failures = 0, read_only = 0;
  for (auto& f : futures) {
    const Status status = f.get().status();
    if (status.code() == ErrorCode::kIoError) ++io_failures;
    if (status.code() == ErrorCode::kReadOnly) ++read_only;
  }
  // Exactly one sentence observed the real fault; every other one was
  // cleanly refused (queue-drain or at-the-door).
  EXPECT_EQ(io_failures, 1u);
  EXPECT_EQ(read_only, 7u);
  ASSERT_TRUE(exec.Drain().ok());
  EXPECT_EQ(exec.stats().rejected_read_only, 7u);
}

TEST(CrashRecoveryTest, TornTailIsReportedByRecovery) {
  InMemoryEnv env;
  DurableExecutor exec(&env, "d", DurableOptions{});
  ASSERT_TRUE(exec.Open().ok());
  ASSERT_TRUE(exec.Submit(Command(DefineRelationCmd{
                       "emp", RelationType::kRollback, EmpSchema()}))
                  .ok());
  // Hand-tear the log: append garbage that a crash could have left.
  ASSERT_TRUE(env.Append("d/wal.log", "torn-half-record").ok());
  DurableExecutor recovered(&env, "d", DurableOptions{});
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_TRUE(recovered.last_recovery().torn_tail);
  EXPECT_EQ(recovered.last_recovery().replayed_records, 1u);
  EXPECT_EQ(recovered.transaction_number(), 1u);
}

TEST(CrashRecoveryTest, CompactStorageTruncatesWalAndPreservesState) {
  InMemoryEnv env;
  DurableExecutor exec(&env, "d", DurableOptions{});
  ASSERT_TRUE(exec.Open().ok());
  const Program steps = Workload();
  SubmitAll(exec, steps);
  const std::string want = EncodeDatabase(exec.Snapshot());
  // A checkpoint keeps the log (it is the salvage baseline) ...
  ASSERT_TRUE(exec.Checkpoint().ok());
  auto wal = ReadWal(env, "d/wal.log");
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal->records.size(), steps.size());
  // ... and the storage compaction is what truncates it.
  ASSERT_TRUE(exec.CompactStorage().ok());
  wal = ReadWal(env, "d/wal.log");
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(wal->records.empty());  // all state now in the checkpoint

  DurableExecutor recovered(&env, "d", DurableOptions{});
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.last_recovery().replayed_records, 0u);
  EXPECT_EQ(EncodeDatabase(recovered.Snapshot()), want);
}

TEST(CrashRecoveryTest, SyncPolicyBatchMayLoseOnlyUnsyncedSuffix) {
  const Program steps = Workload();
  const oracle::OracleRun oracle = oracle::RunSerialOracle(steps);
  DurableOptions options;
  options.sync_policy = SyncPolicy::kBatch;
  options.batch_size = 4;

  FaultInjectionEnv env;
  DurableExecutor exec(&env, "d", options);
  ASSERT_TRUE(exec.Open().ok());
  SubmitAll(exec, steps);
  env.Crash();  // power loss with unsynced commits in flight
  DurableExecutor recovered(&env, "d", options);
  ASSERT_TRUE(recovered.Open().ok());
  const std::string state = EncodeDatabase(recovered.Snapshot());
  // Still a consistent prefix — just not necessarily the full workload.
  EXPECT_LT(oracle::MatchPrefix(oracle.prefixes, state),
            oracle.prefixes.size());
}

TEST(CrashRecoveryTest, RunsOnTheRealFilesystemToo) {
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "/ttra_crash_posix";
  // Start from a clean directory: TempDir persists across test runs.
  if (Result<std::vector<std::string>> files = env->List(dir); files.ok()) {
    for (const std::string& file : *files) {
      ASSERT_TRUE(env->Remove(dir + "/" + file).ok());
    }
  }
  DurableOptions options;
  {
    DurableExecutor exec(env, dir, options);
    ASSERT_TRUE(exec.Open().ok());
    SubmitAll(exec, Workload());
  }  // executor destroyed without checkpoint: WAL is the only truth
  DurableExecutor recovered(env, dir, options);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(EncodeDatabase(recovered.Snapshot()),
            oracle::RunSerialOracle(Workload()).prefixes.back());
  EXPECT_GT(recovered.last_recovery().replayed_records, 0u);
}

// --- Group commit records ---------------------------------------------
//
// No engine writes the single-writer group record (kKindGroup) any more,
// but older wal.log directories hold them and Open() still replays them.
// One record is one checksum, so its durability contract is stronger than
// "prefix of sentences": recovery must land on a prefix of WHOLE batches
// (a crash mid-batch yields the state before the batch, never a torn one)
// and every synced batch survives. The sweep writes the records itself,
// in the format older releases wrote, and recovers through Open().

void PutU64(uint64_t v, std::string& out) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

/// The group record logging workload steps [begin, end): [u8 2][u64
/// count], then per entry [u8 atomic][u64 pre_txn][u64 n][n commands]. An
/// entry's pre_txn is the serial oracle's transaction number before it.
std::string GroupRecord(const Program& steps, size_t begin, size_t end,
                        const oracle::OracleRun& oracle) {
  std::string out;
  out.push_back(2);
  PutU64(end - begin, out);
  for (size_t k = begin; k < end; ++k) {
    out.push_back(static_cast<char>(steps[k].atomic ? 1 : 0));
    PutU64(oracle.txns[k], out);
    PutU64(steps[k].sentence.size(), out);
    for (const Command& command : steps[k].sentence) {
      EncodeCommand(command, out);
    }
  }
  return out;
}

/// Appends one synced group record per batch of `batch_size` steps to the
/// wal.log of a directory Open() created, with a fault armed at op
/// `fault_at` (0 = none). With `checkpoint_every` > 0 a compact checkpoint
/// of the oracle's state is also written once that many sentences have
/// been logged since the last one, so recovery must skip the group entries
/// the checkpoint covers. The first failed write is the crash; recovery
/// must equal a whole-batch prefix holding every synced batch.
void RunGroupCrashPoint(uint64_t fault_at, FaultInjectionEnv::FaultMode mode,
                        size_t checkpoint_every, const Program& steps,
                        const oracle::OracleRun& oracle, size_t batch_size,
                        uint64_t* total_ops = nullptr) {
  SCOPED_TRACE("group fault at op " + std::to_string(fault_at) +
               (mode == FaultInjectionEnv::FaultMode::kFailOp ? " (fail)"
                                                              : " (torn)"));
  // Batch boundaries: 0 steps, batch_size steps, ..., every step.
  std::vector<size_t> boundaries;
  for (size_t k = 0; k < steps.size(); k += batch_size) boundaries.push_back(k);
  boundaries.push_back(steps.size());
  std::vector<std::string> boundary_states;
  for (const size_t k : boundaries) {
    boundary_states.push_back(oracle.prefixes[k]);
  }

  FaultInjectionEnv env;
  ASSERT_TRUE(DurableExecutor(&env, "g").Open().ok());
  CompactStore store(&env, "g");
  ASSERT_TRUE(store.Load(DatabaseOptions{}).ok());  // adopt Open()'s chain
  WalWriter wal(&env, "g/wal.log");
  ASSERT_TRUE(wal.OpenForAppend().ok());
  if (fault_at != 0) env.InjectFault(fault_at, mode);

  size_t acked_batches = 0;
  size_t since_checkpoint = 0;
  for (size_t b = 0; b + 1 < boundaries.size(); ++b) {
    const size_t begin = boundaries[b];
    const size_t end = boundaries[b + 1];
    const std::string record = GroupRecord(steps, begin, end, oracle);
    if (!wal.AddRecord(record).ok() || !wal.Sync().ok()) break;  // "crash"
    ++acked_batches;
    since_checkpoint += end - begin;
    if (checkpoint_every != 0 && since_checkpoint >= checkpoint_every) {
      const Program logged(steps.begin(), steps.begin() + end);
      if (!store.WriteCheckpoint(oracle::RunSerialOracle(logged).final_db)
               .ok()) {
        break;
      }
      since_checkpoint = 0;
    }
  }
  if (total_ops != nullptr) *total_ops = env.op_count();

  env.Crash();
  oracle::EngineUnderTest recovered({oracle::EngineKind::kDurable}, &env, "g");
  ASSERT_TRUE(recovered.Open().ok());

  // The recovered state must sit on a batch boundary — matching a
  // mid-batch prefix whose state differs from every boundary state would
  // mean a torn batch was half-replayed.
  const size_t matched_boundary = oracle::MatchPrefix(
      boundary_states, EncodeDatabase(recovered.Snapshot()));
  ASSERT_LT(matched_boundary, boundaries.size())
      << "recovered database is not a whole-batch prefix (torn batch?)";
  EXPECT_GE(matched_boundary, acked_batches)
      << "recovery lost a synced group record";
  oracle::ExpectResumes(recovered);
}

void RunGroupSweep(FaultInjectionEnv::FaultMode mode,
                   size_t checkpoint_every) {
  const Program steps = Workload();
  const oracle::OracleRun oracle = oracle::RunSerialOracle(steps);
  constexpr size_t kBatchSize = 3;

  uint64_t total_ops = 0;
  RunGroupCrashPoint(0, mode, checkpoint_every, steps, oracle, kBatchSize,
                     &total_ops);
  ASSERT_GT(total_ops, 0u);
  for (uint64_t n = 1; n <= total_ops; ++n) {
    RunGroupCrashPoint(n, mode, checkpoint_every, steps, oracle, kBatchSize);
  }
}

TEST_P(CrashRecoveryTest, EveryGroupFaultPointRecoversWholeBatches) {
  RunGroupSweep(GetParam(), /*checkpoint_every=*/0);
}

TEST_P(CrashRecoveryTest, EveryGroupFaultPointWithAutoCheckpoint) {
  // A checkpoint mid-stream: replay must skip the covered entries.
  RunGroupSweep(GetParam(), /*checkpoint_every=*/2);
}

// Crash under full concurrency: producers race the single-shard
// group-commit writer when the I/O fault fires. Whatever survives on disk,
// recovery must equal a by-hand replay of the surviving checkpoint + shard
// WAL — the same differential the concurrency oracle applies to crash-free
// runs.
TEST(GroupCommitCrashTest, ConcurrentCrashRecoversToWalReplay) {
  const Schema schema = oracle::OneIntSchema();
  ShardedOptions options;
  options.group_commit.max_batch = 4;
  options.group_commit.max_latency = std::chrono::microseconds(200);
  for (uint64_t fault_at = 1; fault_at <= 40; ++fault_at) {
    SCOPED_TRACE("fault at op " + std::to_string(fault_at));
    FaultInjectionEnv env;
    {
      ShardedExecutor exec(&env, "c", options);
      ASSERT_TRUE(exec.Start().ok());
      ASSERT_TRUE(exec.Submit(Command{DefineRelationCmd{
                          "r", RelationType::kRollback, schema}})
                      .ok());
      env.InjectFault(fault_at, FaultInjectionEnv::FaultMode::kFailOp);

      std::vector<std::thread> producers;
      for (int p = 0; p < 2; ++p) {
        producers.emplace_back([&, p]() {
          for (int i = 0; i < 8; ++i) {
            std::vector<Command> sentence;
            sentence.push_back(ModifySnapshotCmd{
                "r", oracle::IntRows(p * 100 + i, i % 4)});
            // I/O failures after the fault fires are expected; losing
            // those unacknowledged sentences is the contract.
            (void)exec.SubmitAsync(std::move(sentence)).get();
          }
        });
      }
      for (auto& t : producers) t.join();
      exec.Stop();
    }
    env.Crash();

    // Recovery oracle, independent of ShardedExecutor::Recover: the
    // surviving checkpoint, then the shard WAL's committed batches chained
    // gap-free from it (a prepare counts only once its commit record is
    // durable), replayed serially.
    Database base(options.durable.db);
    if (CompactStore checkpoint(&env, "c"); checkpoint.Exists()) {
      auto loaded = checkpoint.Load(options.durable.db);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      base = *std::move(loaded);
    }
    ASSERT_TRUE(env.Exists("c/" + ShardWalFile(0)));
    oracle::CommittedOrder order;
    oracle::ReadCommittedOrder(env, "c", 1, order);
    const std::vector<oracle::CommittedBatch> chain =
        oracle::ChainFrom(order.batches, base.transaction_number());
    oracle::OracleRun replay;
    oracle::ReplayChain(chain, std::move(base), replay);
    // The fault is armed only after the define was acknowledged, so an
    // empty oracle would mean the replay read nothing at all.
    ASSERT_NE(replay.final_db.Find("r"), nullptr);

    ShardedExecutor recovered(&env, "c", options);
    ASSERT_TRUE(recovered.Start().ok());
    EXPECT_EQ(EncodeDatabase(recovered.Snapshot()), replay.prefixes.back());
    recovered.Stop();
  }
}

}  // namespace
}  // namespace ttra
