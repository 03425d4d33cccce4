// Engine adapter: the one file of the benchmark that names the executor,
// its on-disk layout and its options. When the engine or the format
// changes (executors folded together, one on-disk format, a metrics
// registry in place of Stats structs), this file is what changes.

#ifndef E2EBENCH_ENGINE_H_
#define E2EBENCH_ENGINE_H_

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "rollback/sharded_executor.h"
#include "storage/env.h"

namespace e2ebench {

/// The configuration every workload shares, written out for reports.
std::string EngineDescription();

/// A running ttra engine on one directory.
class Engine {
 public:
  /// `env` must outlive the engine.
  Engine(ttra::Env* env, std::string dir);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Recovers the directory's durable state and starts the writers.
  ttra::Status Start();
  /// Commits everything enqueued and joins the writers.
  void Stop();

  std::future<ttra::Result<ttra::TransactionNumber>> Submit(
      std::vector<ttra::Command> sentence, bool atomic);
  ttra::Session OpenSession() const;
  ttra::Database Snapshot() const;
  ttra::TransactionNumber transaction_number() const;

  /// Operator actions: checkpoint, and online vacuum of the segments.
  ttra::Status Checkpoint();
  ttra::Status Vacuum();

 private:
  std::unique_ptr<ttra::ShardedExecutor> exec_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_ENGINE_H_
