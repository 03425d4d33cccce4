#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "oracle_harness.h"
#include "rollback/compact_store.h"
#include "workload/generator.h"

namespace ttra {
namespace {

using oracle::Action;
using oracle::Engine;
using oracle::EngineUnderTest;
using oracle::Program;
using oracle::Schedule;
using oracle::Step;

// Compact-storage equivalence oracle (DESIGN.md §16), a parameterisation
// of the oracle harness (DESIGN.md §7). The paper's semantics IS the
// full-state-copy model: every transaction appends a complete database
// state, and ρ(I, N) selects one. The compact engine — delta-encoded
// segments, incremental manifest chain, interval-indexed probes, online
// compaction — is an implementation of that spec, so its observable
// behavior must be indistinguishable from it. For each seed, one random
// command program runs through the serial oracle and through every engine
// of the harness's list, interleaved with random checkpoints, reopens
// (recovery through CompactStore::Load) and online CompactStorage()
// calls. The contracts, on every engine:
//
//  1. per-sentence ack outcomes agree and the final databases are
//     byte-equal (EncodeDatabase), live and after recovery;
//  2. ρ(I, N) answers are equal at EVERY epoch 0..final, both through the
//     recovered in-memory database and through the on-disk probe path
//     (ProbeSnapshot/ProbeHistorical), with the probe cache on or off and
//     through a FINDSTATE-cache-less load;
//  3. a directory holding the retired full-image layout is refused, never
//     read as an empty database or written beside.
//
// The Durable engine and the sharded engines are separate suites over the
// same seeds. Each runs as 10 fixed ctest shards that together sweep
// TTRA_ORACLE_SEEDS seeds (read at RUN time; default 100 — CI's quick lane
// lowers it to 25, tools/check.sh --stress raises it).

constexpr int kOracleShards = 10;
constexpr int kSentences = 24;

struct RelationSpec {
  std::string name;
  RelationType type;
  Schema schema;
};

/// A random program over all four relation types: single modifies, schema
/// changes, delete + redefine, multi-command sentences with a deliberately
/// failing middle (atomic or paper-sequenced), and pure-error sentences.
Program RandomProgram(uint64_t seed) {
  workload::Generator gen(seed + 1, workload::GeneratorOptions{});
  std::vector<RelationSpec> catalog;
  Program program;
  const RelationType kinds[] = {RelationType::kSnapshot,
                                RelationType::kRollback,
                                RelationType::kHistorical,
                                RelationType::kTemporal};
  // At least one retains-history relation of each state kind (rollback,
  // temporal) so the probe sweep always has full-coverage subjects.
  for (size_t i = 0; i < 5; ++i) {
    const RelationType type =
        i < 4 ? kinds[i] : kinds[gen.rng().Uniform(4)];
    catalog.push_back(RelationSpec{
        "r" + std::to_string(i), type, gen.RandomSchema(2)});
  }
  for (const RelationSpec& rel : catalog) {
    program.push_back(
        Step{{Command{DefineRelationCmd{rel.name, rel.type, rel.schema}}}});
  }
  auto modify = [&](const RelationSpec& rel) -> Command {
    if (!HoldsSnapshotStates(rel.type)) {
      return ModifyHistoricalCmd{
          rel.name,
          gen.RandomHistoricalState(rel.schema, gen.rng().Uniform(4))};
    }
    return ModifySnapshotCmd{
        rel.name, gen.RandomState(rel.schema, gen.rng().Uniform(4))};
  };
  for (int i = 0; i < kSentences; ++i) {
    const RelationSpec& rel = catalog[gen.rng().Uniform(catalog.size())];
    Step step;
    const uint64_t kind = gen.rng().Uniform(12);
    if (kind < 7) {
      step.sentence.push_back(modify(rel));
    } else if (kind == 7) {
      // Schema change: forces a keyframe in the relation's segment.
      step.sentence.push_back(ModifySchemaCmd{rel.name, gen.RandomSchema(3)});
      step.sentence.push_back(modify(RelationSpec{
          rel.name, rel.type, gen.RandomSchema(3)}));  // likely fails
    } else if (kind == 8) {
      // Delete + redefine: the manifest must drop and re-cover the name.
      step.sentence.push_back(DeleteRelationCmd{rel.name});
      step.sentence.push_back(
          DefineRelationCmd{rel.name, rel.type, rel.schema});
      step.sentence.push_back(modify(rel));
    } else if (kind < 11) {
      // Failing middle command: paper sequencing keeps the flanking
      // effects, an atomic submit rolls all three back.
      step.atomic = gen.rng().Bernoulli(0.5);
      step.sentence.push_back(modify(rel));
      step.sentence.push_back(
          DefineRelationCmd{rel.name, rel.type, rel.schema});
      step.sentence.push_back(modify(catalog[gen.rng().Uniform(3)]));
    } else {
      step.sentence.push_back(
          DefineRelationCmd{rel.name, rel.type, rel.schema});
    }
    program.push_back(std::move(step));
  }
  return program;
}

Schedule RandomSchedule(uint64_t seed, size_t n) {
  workload::Generator gen(seed + 7);
  Schedule schedule(n, Action::kNone);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t roll = gen.rng().Uniform(10);
    if (roll < 3) {
      schedule[i] = Action::kCheckpoint;
    } else if (roll == 3) {
      schedule[i] = Action::kReopen;
    } else if (roll == 4) {
      schedule[i] = Action::kCompactStorage;
    }
  }
  return schedule;
}

/// One seed on one engine: the schedule, a final checkpoint covering the
/// whole history, then every contract against the serial oracle — on the
/// live engine, after recovery into a fresh one, and on cold stores built
/// from the same directory.
void RunEngineSeed(const Engine& engine, uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " " + engine.Name());
  const Program program = RandomProgram(seed);
  const Schedule schedule = RandomSchedule(seed, program.size());
  const oracle::OracleRun oracle = oracle::RunSerialOracle(program);
  const std::string& oracle_bytes = oracle.prefixes.back();

  InMemoryEnv env;
  const std::string dir = engine.Name();
  ShardedOptions options;
  options.durable.compact.keyframe_interval = 3;  // short replay chains
  {
    EngineUnderTest live(engine, &env, dir, options);
    ASSERT_TRUE(live.Open().ok());
    std::vector<bool> acks;
    oracle::RunSchedule(live, program, schedule, acks);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(oracle.acks, acks);
    // Cover the full history so the probe sweep can answer every epoch.
    ASSERT_TRUE(live.Checkpoint().ok());
    const Database final_db = live.Snapshot();
    ASSERT_EQ(oracle_bytes, EncodeDatabase(final_db));
    oracle::ExpectSameHistory(oracle.final_db, final_db);
    oracle::ExpectProbesMatch(*live.compact_store(), final_db);
  }

  // Recover once more through CompactStore::Load and compare everything.
  EngineUnderTest reopened(engine, &env, dir, options);
  ASSERT_TRUE(reopened.Open().ok());
  const Database recovered = reopened.Snapshot();
  ASSERT_EQ(oracle_bytes, EncodeDatabase(recovered));
  oracle::ExpectSameHistory(oracle.final_db, recovered);
  ASSERT_NE(reopened.compact_store(), nullptr);
  oracle::ExpectProbesMatch(*reopened.compact_store(), recovered);
  if (recovered.transaction_number() > 0) {
    EXPECT_GT(reopened.compact_store()->stats().probes, 0u);
  }
  reopened.Close();
  oracle::ExpectColdStoresMatch(&env, dir, options.durable.compact,
                                oracle.final_db);

  // The retired full-image layout: the oracle database as a checkpoint.db.
  // No engine may read it as an empty database or write a byte beside it.
  const std::string legacy_dir = "legacy-" + engine.Name();
  const std::string legacy_file = legacy_dir + "/" + kLegacyCheckpointFile;
  ASSERT_TRUE(SaveDatabase(oracle.final_db, legacy_file, &env).ok());
  const auto before = oracle::DirImage(env, legacy_dir);
  EngineUnderTest legacy(engine, &env, legacy_dir, options);
  const Status refused = legacy.Open();
  ASSERT_EQ(refused.code(), ErrorCode::kInvalidArgument) << refused;
  ASSERT_EQ(oracle::DirImage(env, legacy_dir), before);
}

/// This ctest shard's seeds on every engine of the list of one kind.
void RunOracleShard(int shard, oracle::EngineKind kind) {
  oracle::ForEachSeed(shard, oracle::SeedCount("TTRA_ORACLE_SEEDS", 100),
                      kOracleShards, [&](uint64_t seed) {
                        for (const Engine& engine : oracle::Engines()) {
                          if (engine.kind != kind) continue;
                          RunEngineSeed(engine, seed);
                          if (::testing::Test::HasFatalFailure()) return;
                        }
                      });
}

class CompactStorageOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(CompactStorageOracleTest, CompactEngineMatchesFullCopySemantics) {
  RunOracleShard(GetParam(), oracle::EngineKind::kDurable);
}

INSTANTIATE_TEST_SUITE_P(Shards, CompactStorageOracleTest,
                         ::testing::Range(0, kOracleShards));

// The group-commit front end (one shard) and a multi-shard layout route
// their checkpoint image through the same CompactStore; the
// concurrency-vs-serial contract itself is owned by concurrent_oracle_test.
class ConcurrentCompactOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ConcurrentCompactOracleTest, GroupCommitEnginesMatchOracle) {
  RunOracleShard(GetParam(), oracle::EngineKind::kSharded);
}

INSTANTIATE_TEST_SUITE_P(Shards, ConcurrentCompactOracleTest,
                         ::testing::Range(0, kOracleShards));

}  // namespace
}  // namespace ttra
