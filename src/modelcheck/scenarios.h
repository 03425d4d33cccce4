#ifndef TTRA_MODELCHECK_SCENARIOS_H_
#define TTRA_MODELCHECK_SCENARIOS_H_

#include <functional>
#include <string>
#include <vector>

#include "modelcheck/explore.h"

namespace ttra {
namespace modelcheck {

/// A named commit-protocol scenario: a self-contained program (fresh
/// InMemoryEnv + scaled-down executor per run) whose invariant checks must
/// hold on EVERY schedule the explorer can produce.
struct Scenario {
  std::string name;
  std::string description;
  std::function<void(ModelContext&)> run;
};

/// `ShardedExecutor` with 1 shard (the single-writer group-commit
/// configuration), 1 writer + 2 client tasks: gap-free transaction
/// chaining, read-your-writes after ack, published-epoch monotonicity,
/// epoch-pinned sessions ≡ ρ(·, epoch), clean Stop() quiescence.
Scenario ConcurrentCommitScenario();

/// `ShardedExecutor`, 2 shards × 2 cross-shard client sentences (opposite
/// home shards): the two-phase prepare/commit protocol plus the durability
/// watermark, under the same invariant set. With `seeded_bug` the executor
/// runs with ProtocolFaultsForTests::ack_out_of_order — the watermark skip
/// the explorer must catch on some schedule.
Scenario ShardedCrossShardScenario(bool seeded_bug = false);

/// `ShardedExecutor`, 1 shard: a client commits while an operator task
/// runs Checkpoint() — the generation switch under the exclusive gate and
/// the image write beside live commits. Acks gap-free, published epoch
/// monotone, and after Stop() + Start() on the same storage every acked
/// sentence is recovered with one generation per log. With
/// `fail_rotation` the creation of the next shard-log generation fails:
/// the checkpoint reports it, the racing sentence commits or is refused
/// read-only (never a write error), no append reaches the failed file,
/// and a restart still recovers the acked prefix.
Scenario ShardedCheckpointScenario(bool fail_rotation = false);

/// The scenarios `ttra modelcheck` / check.sh --model iterate (bug-free
/// configurations only).
std::vector<Scenario> AllScenarios();

/// Lookup by name ("concurrent", "sharded-cross", "sharded-checkpoint",
/// "sharded-checkpoint-fault"); null run on miss.
Scenario FindScenario(const std::string& name, bool seeded_bug = false);

}  // namespace modelcheck
}  // namespace ttra

#endif  // TTRA_MODELCHECK_SCENARIOS_H_
