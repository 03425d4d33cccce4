#include "engine.h"

#include <utility>

namespace e2ebench {
namespace {

ttra::ShardedOptions MakeOptions() {
  ttra::ShardedOptions options;
  options.shards = 1;
  options.durable.sync_policy = ttra::SyncPolicy::kAlways;
  options.durable.compact_storage = true;
  options.durable.compact.keyframe_interval = 16;
  options.durable.db.storage = ttra::StorageKind::kCheckpoint;
  options.durable.db.checkpoint_interval = 16;
  // Group commit and the FINDSTATE cache keep their library defaults.
  return options;
}

}  // namespace

std::string EngineDescription() {
  const ttra::ShardedOptions o = MakeOptions();
  return "ShardedExecutor (1 shard), SyncPolicy::kAlways, compact layout (keyframe "
         "interval " +
         std::to_string(o.durable.compact.keyframe_interval) +
         "), in-memory StorageKind::kCheckpoint (interval " +
         std::to_string(o.durable.db.checkpoint_interval) +
         ", FINDSTATE cache " +
         std::to_string(o.durable.db.findstate_cache_capacity) +
         "), group commit max_batch " +
         std::to_string(o.group_commit.max_batch) + " / max_latency " +
         std::to_string(o.group_commit.max_latency.count()) + "us";
}

Engine::Engine(ttra::Env* env, std::string dir)
    : exec_(std::make_unique<ttra::ShardedExecutor>(env, std::move(dir),
                                                    MakeOptions())) {}

Engine::~Engine() { exec_->Stop(); }

ttra::Status Engine::Start() { return exec_->Start(); }
void Engine::Stop() { exec_->Stop(); }

std::future<ttra::Result<ttra::TransactionNumber>> Engine::Submit(
    std::vector<ttra::Command> sentence, bool atomic) {
  return exec_->SubmitAsync(std::move(sentence), atomic);
}

ttra::Session Engine::OpenSession() const { return exec_->OpenSession(); }
ttra::Database Engine::Snapshot() const { return exec_->Snapshot(); }
ttra::TransactionNumber Engine::transaction_number() const {
  return exec_->transaction_number();
}

ttra::Status Engine::Checkpoint() { return exec_->Checkpoint(); }
ttra::Status Engine::Vacuum() { return exec_->CompactStorage(); }

}  // namespace e2ebench
