// Self-tests of the benchmark's own parts: the percentile rule and the
// run-level summaries, seed determinism of the inputs, and pass-through of
// the wrapping Env.
//
//   e2ebench_selftest [work-dir]
//
// Exits 0 when every check passes.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "engine.h"
#include "inputs.h"
#include "stats.h"
#include "traced_env.h"

namespace {

namespace fs = std::filesystem;
using namespace e2ebench;

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK failed: " \
                << #cond << "\n";                                     \
      ++g_failures;                                                   \
    }                                                                 \
  } while (false)

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void PercentileRule() {
  // p99 of 1000 samples leaves exactly ten beyond it; 999 leave nine.
  CHECK(Percentile(Ramp(1000), 0.99) == std::optional<double>(990));
  CHECK(!Percentile(Ramp(999), 0.99).has_value());
  CHECK(Percentile(Ramp(21), 0.5) == std::optional<double>(11));
  CHECK(!Percentile(Ramp(19), 0.5).has_value());
  CHECK(!Percentile({}, 0.5).has_value());
  CHECK(Median({3, 1, 2}) == 2);
  CHECK(Median({4, 1, 3, 2}) == 2.5);
}

void RunSummaries() {
  // Ten samples, trim 0.1: one dropped at each end.
  CHECK(TrimmedMean({100, 1, 2, 3, 4, 5, 6, 7, 8, -50}, 0.1) == 4.5);
  CHECK(TrimmedMean({2, 4}, 0.1) == 3);
  // Second 1 has median 10 over 3 samples, second 2 has 40 over 1.
  TimedSamples t;
  t.Add(1'000'000'000, 10);
  t.Add(1'200'000'000, 9);
  t.Add(1'999'999'999, 30);
  t.Add(2'000'000'000, 40);
  CHECK(t.SliceMedian() == (10.0 * 3 + 40.0) / 4);
  TimedSamples u;
  u.Add(5'000'000'000, 7);
  t.Merge(u);
  CHECK(t.size() == 5);
  CHECK(t.SliceMedian() == (10.0 * 3 + 40.0 + 7.0) / 5);
  // Two runs of 1000 by end time (the second one holds the last 1500):
  // values 1..1000 end first, then 2001..3500.
  TimedSamples c;
  for (int i = 3500; i > 2000; --i) c.Add(int64_t{10'000} + i, i);
  for (int i = 1000; i >= 1; --i) c.Add(i, i);
  CHECK(c.ChunkPercentile(0.99, 1000) ==
        std::optional<double>((990.0 * 1000 + 3485.0 * 1500) / 2500));
  CHECK(!c.ChunkPercentile(0.999, 1000).has_value());
  CHECK(c.ChunkPercentile(0.99, 1'000'000) == std::optional<double>(3475));
  Throughput r;
  r.Add(30, 1);
  r.Add(10, 3);
  CHECK(r.rate() == 10);
  CHECK(r.phases == 2);
}

void SeedDeterminism() {
  const Inputs a = MakeInputs(7, 64);
  const Inputs b = MakeInputs(7, 64);
  const Inputs c = MakeInputs(8, 64);
  CHECK(a.Digest() == b.Digest());
  CHECK(a.Digest() != c.Digest());
  CHECK(a.relations.size() == kRelations);
  CHECK(a.writes.size() == 64);
  const auto ra = MakeReadRequests(7, 256, 0.5, a.relations);
  const auto rb = MakeReadRequests(7, 256, 0.5, b.relations);
  const auto rc = MakeReadRequests(8, 256, 0.5, c.relations);
  CHECK(DigestReads(ra) == DigestReads(rb));
  CHECK(DigestReads(ra) != DigestReads(rc));
}

/// A tiny deterministic ingest: synchronous submits (one sentence per
/// group commit) plus a checkpoint and a vacuum.
bool TinyIngest(ttra::Env* env, const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const Inputs in = MakeInputs(3, 48);
  Engine engine(env, dir);
  if (!engine.Start().ok()) return false;
  for (const auto& sentence : in.load) {
    if (!engine.Submit(sentence, true).get().ok()) return false;
  }
  for (size_t i = 0; i < in.writes.size(); ++i) {
    const Write& w = in.writes[i];
    if (!engine.Submit(w.sentence, w.atomic).get().ok()) return false;
    if (i == 15 && !engine.Checkpoint().ok()) return false;
    if (i == 31 && !engine.Vacuum().ok()) return false;
  }
  if (!engine.Checkpoint().ok()) return false;
  engine.Stop();
  return true;
}

std::map<std::string, std::string> Files(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    out[entry.path().filename().string()] = bytes.str();
  }
  return out;
}

void EnvPassThrough(const std::string& work) {
  ttra::PosixEnv posix;
  TracedEnv traced(&posix);
  TracedEnv count_only(&posix, SyncMode::kCountOnly);
  CHECK(TinyIngest(&posix, work + "/bare"));
  CHECK(TinyIngest(&traced, work + "/wrapped"));
  CHECK(TinyIngest(&count_only, work + "/count-only"));
  const auto bare = Files(work + "/bare");
  const auto wrapped = Files(work + "/wrapped");
  CHECK(!bare.empty());
  CHECK(bare == wrapped);
  CHECK(bare == Files(work + "/count-only"));
  CHECK(count_only.counters().of(FileClass::kWal).syncs ==
        traced.counters().of(FileClass::kWal).syncs);
  const EnvCounters c = traced.counters();
  CHECK(c.of(FileClass::kWal).appends > 0);
  CHECK(c.of(FileClass::kWal).syncs > 0);
  CHECK(c.of(FileClass::kSegment).append_bytes > 0);
  CHECK(c.of(FileClass::kManifest).syncs > 0);
  CHECK(c.errors == 0);
  CHECK(ClassifyFile("d/shard-3.wal") == FileClass::kWal);
  CHECK(ClassifyFile("d/coordinator.log") == FileClass::kCoordinator);
  CHECK(ClassifyFile("d/segments.manifest") == FileClass::kManifest);
  CHECK(ClassifyFile("d/segments.manifest.tmp") == FileClass::kManifest);
  CHECK(ClassifyFile("d/checkpoint.db") == FileClass::kOther);
  fs::remove_all(work);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string work = argc > 1 ? argv[1] : ".bench_build/e2ebench-selftest";
  PercentileRule();
  RunSummaries();
  SeedDeterminism();
  EnvPassThrough(work);
  if (g_failures != 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cerr << "e2ebench self-tests passed\n";
  return 0;
}
